#ifndef CLUSTERBENCH_PASSES_H_
#define CLUSTERBENCH_PASSES_H_

#include <array>
#include <cstdint>
#include <vector>

#include "metered_transport.h"
#include "workloads.h"

namespace desis::clusterbench {

/// How one pass drives the cluster.
struct PassConfig {
  /// ThreadedTransport and one driver thread per local; otherwise
  /// InlineTransport and one round-robin driver thread.
  bool threaded = false;
  /// Replay event time at the workload's fixed speed-up instead of sending
  /// each round as soon as the previous call returns.
  bool open_loop = false;
  /// Copy sent messages for the codec replay, up to this many wire bytes
  /// per message type (0: off).
  size_t capture_bytes = 0;
};

/// Per-role maxima over the nodes of each role (index = NodeRole).
struct RoleStats {
  std::array<int64_t, 3> busy_ns{};
  std::array<uint64_t, 3> queue_hwm{};
};

struct PassResult {
  double setup_s = 0;      // Cluster construction until Configure returns
  double configure_s = 0;  // the Configure call alone
  double wall_s = 0;       // first driver call until Drain returns
  double drain_s = 0;      // the Drain call alone
  double cpu_s = 0;        // process user+sys CPU over wall_s

  // Correctness.
  std::vector<Fingerprint> got;  // per resident query
  uint64_t unknown_windows = 0;  // windows of ids the workload never used
  uint64_t query_ops = 0;
  uint64_t query_ops_failed = 0;

  // Network.
  uint64_t wire_bytes = 0;  // sum of NodeStats::bytes_sent over all nodes
  MessageCounts messages;   // counted by the transport decorator
  RoleStats roles;

  // Open loop.
  std::vector<int64_t> latency_ns;  // per window, excluding the final flush
  std::vector<int64_t> late_ns;     // per driver round: start minus due time

  // From the attached MetricsRegistry and the live group plans.
  uint64_t operator_evals = 0;
  double shared_work = 0;  // sum over groups of queries x events_in
  uint64_t windows_emitted = 0;
  uint32_t rewrites = 0;
  uint32_t dag_depth = 1;

  std::array<std::vector<Message>, kNumMessageTypes> frames;
};

/// Builds a fresh cluster for `w`, drives every round through it, drains,
/// and collects everything above. Spans are recorded when a SpanRecorder
/// is active.
PassResult RunPass(const Workload& w, const PassConfig& config);

/// Correctness of one pass against the reference.
struct CheckResult {
  uint64_t expected = 0;  // reference windows plus query operations
  uint64_t failed = 0;    // wrong/missing/duplicate windows plus failed ops
};
CheckResult CheckPass(const PassResult& pass,
                      const std::vector<Fingerprint>& want);

/// Seconds of setup only: Cluster construction, transport start, AttachObs,
/// Configure (the cluster is then torn down untimed).
double MeasureSetup(const Workload& w, bool threaded);

}  // namespace desis::clusterbench

#endif  // CLUSTERBENCH_PASSES_H_
