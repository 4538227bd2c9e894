#ifndef CLUSTERBENCH_WORKLOADS_H_
#define CLUSTERBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/event.h"
#include "core/query.h"

namespace desis::clusterbench {

/// Event-time length of one driver round: every driver ingests the events of
/// one round, then advances its local's watermark to the round's end.
inline constexpr Timestamp kRound = 10 * kMillisecond;

/// Query ids at or above this value belong to runtime-churned queries; they
/// are excluded from the correctness check (only resident queries are).
inline constexpr QueryId kChurnIdBase = 1'000'000;

/// One runtime query operation, executed by the first driver right before
/// it ingests round `round`.
struct ChurnOp {
  size_t round = 0;
  bool add = false;
  Query query;  // add: the query to register; remove: query.id is removed
};

/// Everything one workload run needs, generated from the seed: per-local
/// streams, the resident query set, the churn schedule and the cluster
/// shape. Inputs are integer-valued, so every aggregate is exact and window
/// results compare bit for bit.
struct Workload {
  std::string name;
  int locals = 1;
  int intermediates = 1;
  /// ThreadedTransport with one driver thread per local; otherwise
  /// InlineTransport with a single round-robin driver.
  bool threaded = false;
  bool optimize_plans = false;
  /// Open loop: event time runs this many times faster than wall time.
  double open_loop_speedup = 1.0;
  /// Valid closed- and open-loop passes one timed run measures. Fixed per
  /// workload, so no summary moves with how many passes fit in a run.
  size_t closed_passes = 0;
  size_t open_passes = 0;

  std::vector<std::vector<Event>> streams;
  /// round_begin[i][k] = index of the first event of local i in round k
  /// (size rounds + 1).
  std::vector<std::vector<size_t>> round_begin;
  /// Resident queries, ids 1..n (dense index = id - 1).
  std::vector<Query> queries;
  std::vector<ChurnOp> churn;
  size_t rounds = 0;
  /// Watermark of the final flush, past every window end.
  Timestamp final_watermark = 0;
  uint64_t total_events = 0;
};

/// Order-independent fingerprint of one query's emitted windows.
struct Fingerprint {
  uint64_t windows = 0;
  uint64_t hash = 0;  // wrapping sum of per-window hashes

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

uint64_t WindowHash(const WindowResult& r);

const std::vector<std::string>& WorkloadNames();

/// Builds the named workload from `seed`; returns false for unknown names.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// Reference fingerprints per resident query: the single-node DesisEngine on
/// the static plan over the k-way-merged stream (the equivalence the
/// cluster tests rely on).
std::vector<Fingerprint> ReferenceFingerprints(const Workload& w);

}  // namespace desis::clusterbench

#endif  // CLUSTERBENCH_WORKLOADS_H_
