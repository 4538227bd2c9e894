#include "passes.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/cluster.h"
#include "obs/metrics.h"
#include "transport/threaded_transport.h"

namespace desis::clusterbench {
namespace {

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Sleeps until `due_ns` (steady clock). Drivers sleep rather than spin so
/// the delivery workers keep the cores while the generator waits.
void WaitUntil(int64_t due_ns) {
  for (int64_t left = due_ns - NowNs(); left > 0; left = due_ns - NowNs()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(left));
  }
}

/// The result sink. Under a threaded transport it runs on the root's
/// delivery worker only, so it needs no synchronization of its own; the
/// driver reads it after Drain().
struct SinkState {
  std::vector<Fingerprint> got;
  uint64_t unknown_windows = 0;
  // Open loop: due[k] is the wall time round k was due (steady ns).
  const std::vector<int64_t>* due = nullptr;
  std::vector<int64_t> latency_ns;

  void Record(const WindowResult& r) {
    const int64_t now = due != nullptr ? NowNs() : 0;
    if (r.query_id >= 1 && r.query_id <= got.size()) {
      Fingerprint& f = got[static_cast<size_t>(r.query_id - 1)];
      ++f.windows;
      f.hash += WindowHash(r);
    } else if (r.query_id < kChurnIdBase) {
      ++unknown_windows;  // churned queries' windows are not checked
    }
    if (due == nullptr || r.window_end <= 0) return;
    // The round whose watermark advance released this window's end.
    const size_t k =
        static_cast<size_t>((r.window_end + kRound - 1) / kRound) - 1;
    if (k < due->size()) latency_ns.push_back(now - (*due)[k]);
  }
};

struct OpCounter {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Runs the query operations due by round `k` on the driver that owns the
/// churn (`owner`), while every driver stands at the round's start: each
/// local has then seen the same watermark when a query is activated or
/// retired, so the wire traffic is the same under threaded delivery as in
/// the inline single-driver pass.
void RunChurn(Cluster& cluster, const Workload& w, size_t k, bool owner,
              std::barrier<>* sync, size_t* next_op, OpCounter* ops) {
  if (*next_op == w.churn.size() || w.churn[*next_op].round > k) return;
  sync->arrive_and_wait();
  for (; *next_op < w.churn.size() && w.churn[*next_op].round <= k;
       ++*next_op) {
    if (!owner) continue;
    const ChurnOp& op = w.churn[*next_op];
    Status s;
    if (op.add) {
      SpanScope span(SpanKind::kAddQuery);
      s = cluster.AddQuery(op.query);
    } else {
      SpanScope span(SpanKind::kRemoveQuery);
      s = cluster.RemoveQuery(op.query.id);
    }
    ++ops->attempted;
    if (!s.ok()) {
      ++ops->failed;
      std::fprintf(stderr, "query op on %llu failed: %s\n",
                   static_cast<unsigned long long>(op.query.id),
                   s.ToString().c_str());
    }
  }
  sync->arrive_and_wait();
}

/// Drives `locals` through every round (ingest, then advance to the round's
/// end), then the final flush. With `due`, each round waits for its due
/// time and records how late it started. Churn runs on the driver that
/// owns `churn`.
void DriveRounds(Cluster& cluster, const Workload& w,
                 const std::vector<int>& locals, bool churn,
                 std::barrier<>* sync, const std::vector<int64_t>* due,
                 std::vector<int64_t>* late, OpCounter* ops) {
  // Wake-ups on time: the default 50 µs timer slack would show up as
  // generator lateness.
  if (due != nullptr) prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  size_t next_op = 0;
  for (size_t k = 0; k < w.rounds; ++k) {
    if (due != nullptr) {
      WaitUntil((*due)[k]);
      late->push_back(NowNs() - (*due)[k]);
    }
    RunChurn(cluster, w, k, churn, sync, &next_op, ops);
    const Timestamp watermark = static_cast<Timestamp>(k + 1) * kRound;
    for (int i : locals) {
      const auto& begin = w.round_begin[static_cast<size_t>(i)];
      const size_t first = begin[k];
      const size_t count = begin[k + 1] - first;
      if (count > 0) {
        SpanScope span(SpanKind::kIngest);
        cluster.IngestAt(i, w.streams[static_cast<size_t>(i)].data() + first,
                         count);
      }
      SpanScope span(SpanKind::kAdvance);
      cluster.AdvanceAt(i, watermark);
    }
  }
  for (int i : locals) {
    SpanScope span(SpanKind::kAdvance);
    cluster.AdvanceAt(i, w.final_watermark);
  }
}

/// Constructs and configures a cluster for `w` (the setup_s interval).
struct Deployed {
  std::unique_ptr<Cluster> cluster;
  MeteredTransport* transport = nullptr;
  double setup_s = 0;
  double configure_s = 0;
};

Deployed Deploy(const Workload& w, bool threaded,
                obs::MetricsRegistry* registry,
                std::function<void(const WindowResult&)> sink) {
  Deployed d;
  const int64_t t0 = NowNs();
  ClusterOptions options;
  options.optimize_plans = w.optimize_plans;
  d.cluster = std::make_unique<Cluster>(
      ClusterSystem::kDesis, ClusterTopology{w.locals, w.intermediates, 1},
      options);
  std::unique_ptr<Transport> inner;
  if (threaded) {
    inner = std::make_unique<ThreadedTransport>();
  } else {
    inner = std::make_unique<InlineTransport>();
  }
  auto metered = std::make_unique<MeteredTransport>(std::move(inner));
  d.transport = metered.get();
  d.cluster->set_transport(std::move(metered));
  d.cluster->AttachObs(registry, nullptr);
  d.cluster->set_sink(std::move(sink));
  const int64_t t1 = NowNs();
  const Status s = d.cluster->Configure(w.queries);
  const int64_t t2 = NowNs();
  if (!s.ok()) {
    std::fprintf(stderr, "Configure failed: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  d.setup_s = Seconds(t2 - t0);
  d.configure_s = Seconds(t2 - t1);
  return d;
}

void CollectRegistry(const Cluster& cluster, obs::MetricsRegistry& registry,
                     PassResult* out) {
  static const char* kOps[] = {"sum", "count", "mult", "dsort", "ndsort",
                               "sumsq"};
  for (const QueryGroup& g : cluster.QueryGroupsSnapshot()) {
    const obs::Labels labels = {{"group", std::to_string(g.id)}};
    if (obs::Counter* in = registry.GetCounter("group.events_in", labels)) {
      out->shared_work += static_cast<double>(g.queries.size()) *
                          static_cast<double>(in->value());
    }
    for (const char* op : kOps) {
      obs::Labels op_labels = labels;
      op_labels.emplace_back("op", op);
      if (obs::Counter* evals =
              registry.GetCounter("group.operator_evals", op_labels)) {
        out->operator_evals += evals->value();
      }
    }
    out->rewrites += g.plan.rewrites;
    out->dag_depth = std::max(out->dag_depth, g.plan.dag_depth);
  }
  if (obs::Counter* results = registry.GetCounter(
          "cluster.results", {{"system", ToString(ClusterSystem::kDesis)}})) {
    out->windows_emitted = results->value();
  }
}

void CollectNodeStats(const Cluster& cluster, PassResult* out) {
  auto note = [out](NodeRole role, const NodeStats& s) {
    const size_t r = static_cast<size_t>(role);
    out->wire_bytes += s.bytes_sent;
    out->roles.busy_ns[r] = std::max<int64_t>(out->roles.busy_ns[r], s.busy_ns);
    out->roles.queue_hwm[r] =
        std::max<uint64_t>(out->roles.queue_hwm[r], s.queue_hwm);
  };
  for (int i = 0; i < cluster.num_locals(); ++i) {
    note(NodeRole::kLocal, cluster.local_stats(i));
  }
  for (int i = 0; i < cluster.num_intermediates(); ++i) {
    note(NodeRole::kIntermediate, cluster.intermediate_stats(i));
  }
  note(NodeRole::kRoot, cluster.root_stats());
}

}  // namespace

PassResult RunPass(const Workload& w, const PassConfig& config) {
  PassResult out;
  obs::MetricsRegistry registry;  // outlives the cluster
  SinkState sink;
  sink.got.assign(w.queries.size(), Fingerprint{});
  std::vector<int64_t> due;
  if (config.open_loop) {
    due.resize(w.rounds);
    sink.due = &due;
    sink.latency_ns.reserve(1 << 16);
  }
  Deployed d = Deploy(w, config.threaded, &registry,
                      [&sink](const WindowResult& r) {
                        SpanScope span(SpanKind::kSink);
                        sink.Record(r);
                      });
  Cluster& cluster = *d.cluster;
  out.setup_s = d.setup_s;
  out.configure_s = d.configure_s;
  if (config.capture_bytes > 0) {
    d.transport->CaptureFrames(config.capture_bytes);
  }

  const size_t drivers = config.threaded ? static_cast<size_t>(w.locals) : 1;
  std::vector<std::vector<int>> owned(drivers);
  for (int i = 0; i < w.locals; ++i) {
    owned[static_cast<size_t>(i) % drivers].push_back(i);
  }
  std::vector<std::vector<int64_t>> late(drivers);
  std::vector<OpCounter> ops(drivers);
  std::barrier<> churn_sync(static_cast<std::ptrdiff_t>(drivers));

  std::atomic<bool> go{false};
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  auto drive = [&](size_t t) {
    DriveRounds(cluster, w, owned[t], /*churn=*/t == 0, &churn_sync,
                config.open_loop ? &due : nullptr, &late[t], &ops[t]);
  };
  for (size_t t = 1; t < drivers; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      drive(t);
    });
  }
  while (ready.load() < drivers - 1) std::this_thread::yield();

  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  if (config.open_loop) {
    // Round k covers event time [k, k+1) x kRound and is due once its last
    // event time has passed on the sped-up wall clock.
    const double ns_per_round =
        static_cast<double>(kRound) * 1e3 / w.open_loop_speedup;
    for (size_t k = 0; k < w.rounds; ++k) {
      due[k] = t0 + static_cast<int64_t>(static_cast<double>(k + 1) *
                                         ns_per_round);
    }
  }
  go.store(true, std::memory_order_release);
  drive(0);
  for (auto& t : threads) t.join();
  const int64_t t_drain = NowNs();
  cluster.Drain();
  const int64_t t1 = NowNs();
  out.cpu_s = CpuSeconds() - cpu0;
  out.wall_s = Seconds(t1 - t0);
  out.drain_s = Seconds(t1 - t_drain);

  for (size_t t = 0; t < drivers; ++t) {
    out.query_ops += ops[t].attempted;
    out.query_ops_failed += ops[t].failed;
    out.late_ns.insert(out.late_ns.end(), late[t].begin(), late[t].end());
  }
  out.got = std::move(sink.got);
  out.unknown_windows = sink.unknown_windows;
  out.latency_ns = std::move(sink.latency_ns);
  out.messages = d.transport->Totals();
  out.frames = d.transport->TakeCaptured();
  CollectNodeStats(cluster, &out);
  CollectRegistry(cluster, registry, &out);
  d.cluster.reset();  // joins delivery workers before the sink state dies
  return out;
}

CheckResult CheckPass(const PassResult& pass,
                      const std::vector<Fingerprint>& want) {
  CheckResult c;
  for (size_t q = 0; q < want.size(); ++q) {
    c.expected += want[q].windows;
    if (!(pass.got[q] == want[q])) {
      // A differing fingerprint cannot say which windows differ: count every
      // window of the query, expected or emitted, as failed.
      c.failed += std::max(want[q].windows, pass.got[q].windows);
    }
  }
  c.failed += pass.unknown_windows;
  c.expected += pass.query_ops;
  c.failed += pass.query_ops_failed;
  return c;
}

double MeasureSetup(const Workload& w, bool threaded) {
  // Each sample runs on a fresh thread, so the scheduler places it anew:
  // setup cost depends on where the delivery workers start relative to the
  // caller, and one long-lived caller would sample a single placement.
  double setup_s = 0;
  std::thread([&] {
    obs::MetricsRegistry registry;
    setup_s =
        Deploy(w, threaded, &registry, [](const WindowResult&) {}).setup_s;
  }).join();
  return setup_s;
}

}  // namespace desis::clusterbench
