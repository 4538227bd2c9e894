#include "net/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/slicer.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "transport/threaded_transport.h"
#include "transport/transport.h"

namespace desis {
namespace {

Query MakeQuery(QueryId id, WindowSpec window, AggregationFunction fn,
                Predicate pred = Predicate::All(), double quantile = 0.5) {
  Query q;
  q.id = id;
  q.window = window;
  q.agg = {fn, quantile};
  q.predicate = pred;
  return q;
}

using ResultMap = std::map<QueryId, std::map<Timestamp, WindowResult>>;

// Feeds per-local streams through the cluster in lock-stepped time rounds
// of `step` µs, advancing watermarks after each round, then drains the
// transport so every result has reached the sink.
ResultMap RunCluster(Cluster& cluster,
                     const std::vector<std::vector<Event>>& per_local,
                     Timestamp step, Timestamp end_ts) {
  ResultMap results;
  cluster.set_sink([&](const WindowResult& r) {
    results[r.query_id][r.window_start] = r;
  });
  std::vector<size_t> cursor(per_local.size(), 0);
  for (Timestamp t = 0; t <= end_ts; t += step) {
    for (size_t i = 0; i < per_local.size(); ++i) {
      const size_t begin = cursor[i];
      while (cursor[i] < per_local[i].size() &&
             per_local[i][cursor[i]].ts < t + step) {
        ++cursor[i];
      }
      if (cursor[i] > begin) {
        cluster.IngestAt(static_cast<int>(i), per_local[i].data() + begin,
                         cursor[i] - begin);
      }
    }
    cluster.Advance(t + step);
  }
  cluster.Advance(end_ts + 10 * step);
  cluster.Drain();
  return results;
}

// Single-node reference: merge all streams in ts order through DesisEngine.
ResultMap RunReference(const std::vector<Query>& queries,
                       const std::vector<std::vector<Event>>& per_local,
                       Timestamp end_ts) {
  std::vector<Event> merged;
  for (const auto& stream : per_local) {
    merged.insert(merged.end(), stream.begin(), stream.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Event& a, const Event& b) { return a.ts < b.ts; });
  DesisEngine engine;
  EXPECT_TRUE(engine.Configure(queries).ok());
  ResultMap results;
  engine.set_sink([&](const WindowResult& r) {
    results[r.query_id][r.window_start] = r;
  });
  for (const Event& e : merged) engine.Ingest(e);
  engine.AdvanceTo(end_ts * 20 + 1000);
  return results;
}

std::vector<std::vector<Event>> RandomStreams(int locals, int per_local,
                                              Timestamp max_ts, uint64_t seed,
                                              int keys = 1) {
  std::vector<std::vector<Event>> streams(static_cast<size_t>(locals));
  Rng rng(seed);
  for (auto& stream : streams) {
    Timestamp ts = 0;
    for (int i = 0; i < per_local; ++i) {
      ts += rng.NextInRange(1, std::max<int64_t>(1, max_ts / per_local));
      stream.push_back({ts, static_cast<uint32_t>(rng.NextBounded(keys)),
                        static_cast<double>(rng.NextBounded(1000)), kNoMarker});
    }
  }
  return streams;
}

size_t WindowCount(const ResultMap& results) {
  size_t n = 0;
  for (const auto& [qid, windows] : results) n += windows.size();
  return n;
}

void ExpectSameResults(const ResultMap& got, const ResultMap& want,
                       double tol = 1e-9) {
  for (const auto& [qid, windows] : want) {
    auto it = got.find(qid);
    ASSERT_NE(it, got.end()) << "no results for query " << qid;
    for (const auto& [ws, result] : windows) {
      auto wit = it->second.find(ws);
      ASSERT_NE(wit, it->second.end())
          << "query " << qid << " missing window @" << ws;
      EXPECT_NEAR(wit->second.value, result.value, tol)
          << "query " << qid << " window @" << ws;
      EXPECT_EQ(wit->second.event_count, result.event_count)
          << "query " << qid << " window @" << ws;
    }
  }
}

TEST(DesisCluster, TumblingSumMatchesSingleNode) {
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kSum)};
  auto streams = RandomStreams(3, 200, 1000, 42);
  Cluster cluster(ClusterSystem::kDesis, {3, 1});
  ASSERT_TRUE(cluster.Configure(queries).ok());
  auto got = RunCluster(cluster, streams, 50, 1200);
  auto want = RunReference(queries, streams, 1200);
  ASSERT_FALSE(want.empty());
  ExpectSameResults(got, want);
}

TEST(DesisCluster, MultiQueryCrossFunctionMatchesSingleNode) {
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kAverage),
      MakeQuery(2, WindowSpec::Sliding(200, 50), AggregationFunction::kSum),
      MakeQuery(3, WindowSpec::Tumbling(100), AggregationFunction::kMax),
      MakeQuery(4, WindowSpec::Tumbling(250), AggregationFunction::kCount),
  };
  auto streams = RandomStreams(4, 300, 2000, 7);
  Cluster cluster(ClusterSystem::kDesis, {4, 2});
  ASSERT_TRUE(cluster.Configure(queries).ok());
  auto got = RunCluster(cluster, streams, 50, 2500);
  auto want = RunReference(queries, streams, 2500);
  ExpectSameResults(got, want);
}

TEST(DesisCluster, NonDecomposableMedianMatchesSingleNode) {
  // Median partials travel as sorted slice batches; the root merges runs.
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kMedian),
      MakeQuery(2, WindowSpec::Tumbling(100), AggregationFunction::kQuantile,
                Predicate::All(), 0.9),
  };
  auto streams = RandomStreams(3, 200, 1000, 13);
  Cluster cluster(ClusterSystem::kDesis, {3, 1});
  ASSERT_TRUE(cluster.Configure(queries).ok());
  auto got = RunCluster(cluster, streams, 50, 1200);
  auto want = RunReference(queries, streams, 1200);
  ExpectSameResults(got, want);
}

TEST(DesisCluster, SessionWindowsAcrossNodes) {
  // Sessions are global: node 0 active at [0..40], node 1 at [30..80]
  // with per-node gaps that a single node would close — the union stream
  // has one session [0, 80+gap).
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Session(25), AggregationFunction::kCount)};
  std::vector<std::vector<Event>> streams(2);
  for (Timestamp t = 0; t <= 40; t += 20) streams[0].push_back({t, 0, 1.0, 0});
  for (Timestamp t = 30; t <= 80; t += 20) streams[1].push_back({t, 0, 1.0, 0});
  Cluster cluster(ClusterSystem::kDesis, {2, 1});
  ASSERT_TRUE(cluster.Configure(queries).ok());
  auto got = RunCluster(cluster, streams, 10, 300);
  ASSERT_TRUE(got.contains(1));
  ASSERT_EQ(got[1].size(), 1u);
  const WindowResult& r = got[1].begin()->second;
  EXPECT_EQ(r.window_start, 0);
  EXPECT_EQ(r.window_end, 95);  // last event 70 + gap 25
  EXPECT_DOUBLE_EQ(r.value, 6.0);
}

TEST(DesisCluster, TwoSessionsAcrossNodes) {
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Session(25), AggregationFunction::kSum)};
  std::vector<std::vector<Event>> streams(2);
  streams[0] = {{0, 0, 1.0, 0}, {10, 0, 2.0, 0}, {200, 0, 5.0, 0}};
  streams[1] = {{15, 0, 3.0, 0}, {210, 0, 7.0, 0}};
  Cluster cluster(ClusterSystem::kDesis, {2, 0});
  ASSERT_TRUE(cluster.Configure(queries).ok());
  auto got = RunCluster(cluster, streams, 10, 400);
  ASSERT_EQ(got[1].size(), 2u);
  EXPECT_DOUBLE_EQ(got[1][0].value, 6.0);     // session [0, 40)
  EXPECT_DOUBLE_EQ(got[1][200].value, 12.0);  // session [200, 235)
}

TEST(DesisCluster, UserDefinedWindowsWithBroadcastMarkers) {
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::UserDefined(), AggregationFunction::kMax)};
  // Markers occur at the same ts on every stream (stream-global trips).
  std::vector<std::vector<Event>> streams(2);
  streams[0] = {{5, 0, 10.0, 0}, {20, 0, 50.0, kWindowEnd}, {30, 0, 7.0, 0},
                {45, 0, 9.0, kWindowEnd}};
  streams[1] = {{8, 0, 30.0, 0}, {20, 0, 40.0, kWindowEnd}, {35, 0, 80.0, 0},
                {45, 0, 6.0, kWindowEnd}};
  Cluster cluster(ClusterSystem::kDesis, {2, 1});
  ASSERT_TRUE(cluster.Configure(queries).ok());
  auto got = RunCluster(cluster, streams, 5, 100);
  ASSERT_EQ(got[1].size(), 2u);
  EXPECT_DOUBLE_EQ(got[1][5].value, 50.0);   // trip 1: max(10,30,50,40)
  EXPECT_DOUBLE_EQ(got[1][30].value, 80.0);  // trip 2: max(7,80,9,6)
}

TEST(DesisCluster, CountWindowsEvaluateAtRoot) {
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::CountTumbling(10), AggregationFunction::kSum)};
  auto streams = RandomStreams(3, 100, 1000, 5);
  Cluster cluster(ClusterSystem::kDesis, {3, 1});
  ASSERT_TRUE(cluster.Configure(queries).ok());
  auto got = RunCluster(cluster, streams, 50, 1200);
  auto want = RunReference(queries, streams, 1200);
  // Count windows depend on the global arrival order; ties across nodes at
  // equal ts make window boundaries ambiguous, so compare totals instead of
  // per-window values.
  ASSERT_TRUE(got.contains(1));
  EXPECT_EQ(got[1].size(), want[1].size());
  double got_sum = 0;
  double want_sum = 0;
  for (auto& [ws, r] : got[1]) got_sum += r.value;
  for (auto& [ws, r] : want[1]) want_sum += r.value;
  EXPECT_NEAR(got_sum, want_sum, 1e-6);
}

TEST(DesisCluster, SelectionLanesAcrossNodes) {
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kSum,
                Predicate::KeyEquals(0)),
      MakeQuery(2, WindowSpec::Tumbling(100), AggregationFunction::kSum,
                Predicate::KeyEquals(1)),
  };
  auto streams = RandomStreams(2, 200, 1000, 21, /*keys=*/3);
  Cluster cluster(ClusterSystem::kDesis, {2, 1});
  ASSERT_TRUE(cluster.Configure(queries).ok());
  auto got = RunCluster(cluster, streams, 50, 1200);
  auto want = RunReference(queries, streams, 1200);
  ExpectSameResults(got, want);
}

// Integer values, ~1% session gaps of 200-400 µs, and optionally 90% of
// the events on one hot key.
std::vector<Event> GappedStream(uint64_t seed, int count, int num_keys,
                                bool skewed) {
  Rng rng(seed);
  std::vector<Event> events;
  Timestamp ts = 0;
  for (int i = 0; i < count; ++i) {
    ts += rng.NextBool(0.01) ? rng.NextInRange(200, 400)
                             : rng.NextInRange(0, 4);
    const uint32_t key =
        skewed && rng.NextBool(0.9)
            ? 0u
            : static_cast<uint32_t>(
                  rng.NextBounded(static_cast<uint64_t>(num_keys)));
    events.push_back(
        {ts, key, static_cast<double>(rng.NextBounded(1000)), kNoMarker});
  }
  return events;
}

TEST(DesisCluster, MixedWindowsThroughIntermediateMatchSingleNodeExactly) {
  // Several query kinds share one group on the serial local path, and the
  // intermediate holds incomplete slices back while pinning its watermark
  // (the session windows depend on that). Integer values make every
  // aggregate exact, so the comparison allows no tolerance.
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(500), AggregationFunction::kSum),
      MakeQuery(2, WindowSpec::Sliding(900, 300), AggregationFunction::kAverage),
      MakeQuery(3, WindowSpec::Session(150), AggregationFunction::kMax),
      MakeQuery(4, WindowSpec::Tumbling(700), AggregationFunction::kCount,
                Predicate::KeyEquals(3)),
      MakeQuery(5, WindowSpec::Sliding(1200, 400), AggregationFunction::kMin,
                Predicate::ValueRange(100, 800)),
  };
  std::vector<std::vector<Event>> streams;
  Timestamp end_ts = 0;
  for (int l = 0; l < 3; ++l) {
    streams.push_back(GappedStream(100 + static_cast<uint64_t>(l), 6'000,
                                   /*num_keys=*/32, /*skewed=*/l == 1));
    end_ts = std::max(end_ts, streams.back().back().ts);
  }
  end_ts += 2'000;  // rounds continue past the widest window
  const ResultMap want = RunReference(queries, streams, end_ts);
  ASSERT_EQ(want.size(), queries.size());
  for (const bool threaded : {false, true}) {
    for (const Timestamp step : {50, 250, 1'000}) {
      SCOPED_TRACE(testing::Message() << (threaded ? "threaded" : "inline")
                                      << " step=" << step);
      Cluster cluster(ClusterSystem::kDesis, {3, 1});
      if (threaded) {
        cluster.set_transport(std::make_unique<ThreadedTransport>());
      }
      ASSERT_TRUE(cluster.Configure(queries).ok());
      const ResultMap got = RunCluster(cluster, streams, step, end_ts);
      EXPECT_EQ(WindowCount(got), WindowCount(want));
      ExpectSameResults(got, want, /*tol=*/0.0);
    }
  }
}

TEST(DesisCluster, HolisticSlidingWindowsMatchSingleNodeExactly) {
  // fanin_holistic's window shapes, scaled to 50 µs slices: sliding windows
  // cover two to five slices, so the root reads ranks across several sorted
  // runs per window. MIN and MAX share the sort state with the quantiles.
  // Integer values keep every aggregate exact.
  using F = AggregationFunction;
  const std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Sliding(100, 50), F::kMedian),
      MakeQuery(2, WindowSpec::Sliding(150, 50), F::kQuantile,
                Predicate::All(), 0.9),
      MakeQuery(3, WindowSpec::Sliding(200, 50), F::kQuantile,
                Predicate::All(), 0.99),
      MakeQuery(4, WindowSpec::Sliding(250, 50), F::kMedian),
      MakeQuery(5, WindowSpec::Sliding(200, 50), F::kMin),
      MakeQuery(6, WindowSpec::Sliding(250, 50), F::kMax),
      MakeQuery(7, WindowSpec::Tumbling(100), F::kQuantile, Predicate::All(),
                0.99),
      MakeQuery(8, WindowSpec::Tumbling(250), F::kMedian),
      MakeQuery(9, WindowSpec::Tumbling(100), F::kSum),
      MakeQuery(10, WindowSpec::Sliding(150, 50), F::kQuantile,
                Predicate::KeyEquals(2), 0.9),
  };
  const auto streams = RandomStreams(2, 3'000, 3'000, 61, /*keys=*/4);
  const ResultMap want = RunReference(queries, streams, 3'000);
  ASSERT_EQ(want.size(), queries.size());
  for (const bool threaded : {false, true}) {
    SCOPED_TRACE(threaded ? "threaded" : "inline");
    Cluster cluster(ClusterSystem::kDesis, {2, 1});
    if (threaded) cluster.set_transport(std::make_unique<ThreadedTransport>());
    ASSERT_TRUE(cluster.Configure(queries).ok());
    const ResultMap got = RunCluster(cluster, streams, 50, 3'000);
    EXPECT_EQ(WindowCount(got), WindowCount(want));
    ExpectSameResults(got, want, /*tol=*/0.0);
  }
}

// Events on keys 0-3 with integer values, so every aggregate is exact.
// Gaps are 1-1,000 µs, except about 2% that are 20-40 ms, long enough to
// close a 15 ms session; 2,000 events span about 2.2 s.
std::vector<std::vector<Event>> BurstyStreams(int locals, int per_local,
                                              uint64_t seed) {
  std::vector<std::vector<Event>> streams(static_cast<size_t>(locals));
  Rng rng(seed);
  for (auto& stream : streams) {
    Timestamp ts = 0;
    for (int i = 0; i < per_local; ++i) {
      ts += rng.NextBool(0.02) ? rng.NextInRange(20'000, 40'000)
                               : rng.NextInRange(1, 1'000);
      stream.push_back({ts, static_cast<uint32_t>(rng.NextBounded(4)),
                        static_cast<double>(rng.NextBounded(1000)), kNoMarker});
    }
  }
  return streams;
}

Timestamp LastEventTs(const std::vector<std::vector<Event>>& streams) {
  Timestamp last = 0;
  for (const auto& stream : streams) last = std::max(last, stream.back().ts);
  return last;
}

// Drives 10 ms event-time rounds as clusterbench feeds a cluster: every
// local ingests its events below the round's end, then every local
// advances to it. `before_round(wm)` runs ahead of each round and
// `after_advance(local, wm)` after each AdvanceAt.
constexpr Timestamp kRound = 10'000;
void RunRounds(Cluster& cluster,
               const std::vector<std::vector<Event>>& per_local,
               Timestamp end_ts,
               const std::function<void(Timestamp)>& before_round,
               const std::function<void(int, Timestamp)>& after_advance) {
  std::vector<size_t> cursor(per_local.size(), 0);
  for (Timestamp wm = kRound; wm <= end_ts; wm += kRound) {
    if (before_round) before_round(wm);
    for (size_t i = 0; i < per_local.size(); ++i) {
      const size_t begin = cursor[i];
      while (cursor[i] < per_local[i].size() &&
             per_local[i][cursor[i]].ts < wm) {
        ++cursor[i];
      }
      if (cursor[i] > begin) {
        cluster.IngestAt(static_cast<int>(i), per_local[i].data() + begin,
                         cursor[i] - begin);
      }
    }
    for (size_t i = 0; i < per_local.size(); ++i) {
      cluster.AdvanceAt(static_cast<int>(i), wm);
      if (after_advance) after_advance(static_cast<int>(i), wm);
    }
  }
  cluster.Drain();
}

TEST(DesisCluster, FixedWindowsReleaseInTheRoundTheirEndPasses) {
  // The KeyEquals(1) group's slices end only at multiples of 250 ms, so its
  // open slice starts up to 250 ms behind the watermark. That must not hold
  // back the match-all group: every window reaches the sink during the
  // first round whose watermark reaches its end.
  const std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100'000), AggregationFunction::kSum),
      MakeQuery(2, WindowSpec::Tumbling(250'000), AggregationFunction::kSum,
                Predicate::KeyEquals(1)),
  };
  const auto streams = BurstyStreams(2, 2'000, 71);
  const Timestamp end_ts = LastEventTs(streams) + 260'000;
  const ResultMap want = RunReference(queries, streams, end_ts);
  ASSERT_EQ(want.size(), queries.size());

  obs::MetricsRegistry registry;
  Cluster cluster(ClusterSystem::kDesis, {2, 1});
  cluster.AttachObs(&registry, nullptr);
  ASSERT_TRUE(cluster.Configure(queries).ok());
  ASSERT_EQ(cluster.QueryGroupsSnapshot().size(), 2u);
  ResultMap got;
  std::map<QueryId, std::map<Timestamp, Timestamp>> released_at;
  Timestamp round_wm = kNoTimestamp;
  cluster.set_sink([&](const WindowResult& r) {
    got[r.query_id][r.window_start] = r;
    released_at[r.query_id][r.window_start] = round_wm;
  });
  RunRounds(cluster, streams, end_ts,
            [&](Timestamp wm) { round_wm = wm; }, nullptr);
  EXPECT_EQ(WindowCount(got), WindowCount(want));
  ExpectSameResults(got, want, /*tol=*/0.0);
  for (const auto& [qid, windows] : got) {
    for (const auto& [ws, r] : windows) {
      const Timestamp due = (r.window_end + kRound - 1) / kRound * kRound;
      EXPECT_EQ(released_at[qid][ws], due)
          << "query " << qid << " window [" << ws << ", " << r.window_end
          << ")";
    }
  }
#if DESIS_OBS_ENABLED
  // The root's own probe agrees: no window waited for the watermark.
  const obs::Histogram* lag = registry.GetHistogram(
      "root.release_lag_us", {{"node", "0"}, {"role", "root"}});
  EXPECT_EQ(lag->count(), WindowCount(got));
  EXPECT_EQ(lag->max(), 0u);
#endif

  // Threaded delivery: the same windows, exactly.
  Cluster threaded(ClusterSystem::kDesis, {2, 1});
  threaded.set_transport(std::make_unique<ThreadedTransport>());
  ASSERT_TRUE(threaded.Configure(queries).ok());
  ResultMap threaded_got;
  threaded.set_sink([&](const WindowResult& r) {
    threaded_got[r.query_id][r.window_start] = r;
  });
  RunRounds(threaded, streams, end_ts, nullptr, nullptr);
  EXPECT_EQ(WindowCount(threaded_got), WindowCount(want));
  ExpectSameResults(threaded_got, want, /*tol=*/0.0);
}

// Inline delivery that keeps the last watermark a local advertised.
class LocalWatermarkTap final : public Transport {
 public:
  const char* name() const override { return "inline"; }
  void Send(Node* from, Node* to, int child_index,
            const Message& message) override {
    if (from->role() == NodeRole::kLocal &&
        message.type == MessageType::kWatermark) {
      last = DecodeWatermark(message.payload);
    }
    to->Receive(message, child_index);
  }
  Timestamp last = kNoTimestamp;
};

TEST(DesisCluster, SessionGroupKeepsPinningItsLocalsWatermark) {
  // A match-all fixed group next to a KeyEquals(1) session group: the
  // fixed group may not lift a local's watermark above the session group's
  // open slice, or the root's session scan would pass activity still
  // sitting in it.
  const std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100'000), AggregationFunction::kSum),
      MakeQuery(2, WindowSpec::Sliding(200'000, 50'000),
                AggregationFunction::kMax),
      MakeQuery(3, WindowSpec::Session(15'000), AggregationFunction::kSum,
                Predicate::KeyEquals(1)),
  };
  const auto streams = BurstyStreams(2, 2'000, 83);
  const Timestamp end_ts = LastEventTs(streams) + 260'000;
  const ResultMap want = RunReference(queries, streams, end_ts);
  ASSERT_EQ(want.size(), queries.size());

  Cluster cluster(ClusterSystem::kDesis, {2, 1});
  auto tap = std::make_unique<LocalWatermarkTap>();
  LocalWatermarkTap* tap_raw = tap.get();
  cluster.set_transport(std::move(tap));
  ASSERT_TRUE(cluster.Configure(queries).ok());
  const std::vector<QueryGroup> groups = cluster.QueryGroupsSnapshot();
  ASSERT_EQ(groups.size(), 2u);
  const QueryGroup& session_group = groups[1];
  ASSERT_EQ(session_group.queries.front().query.id, 3u);

  // Each local's session slicer, replayed from the same calls: its
  // SafeWatermark() is the ceiling for the local's advertisement.
  EngineStats mirror_stats;
  SlicerOptions options;
  options.assemble_windows = false;
  options.keep_slices = false;
  std::vector<std::unique_ptr<StreamSlicer>> mirrors;
  for (size_t i = 0; i < streams.size(); ++i) {
    mirrors.push_back(
        std::make_unique<StreamSlicer>(session_group, options, &mirror_stats));
  }
  std::vector<size_t> mirror_cursor(streams.size(), 0);

  ResultMap got;
  cluster.set_sink([&](const WindowResult& r) {
    got[r.query_id][r.window_start] = r;
  });
  int pinned_checks = 0;
  RunRounds(cluster, streams, end_ts, nullptr,
            [&](int local, Timestamp wm) {
              const auto i = static_cast<size_t>(local);
              const size_t begin = mirror_cursor[i];
              while (mirror_cursor[i] < streams[i].size() &&
                     streams[i][mirror_cursor[i]].ts < wm) {
                ++mirror_cursor[i];
              }
              mirrors[i]->IngestBatch(streams[i].data() + begin,
                                      mirror_cursor[i] - begin);
              mirrors[i]->AdvanceTo(wm);
              const Timestamp ceiling = mirrors[i]->SafeWatermark();
              EXPECT_LE(tap_raw->last, ceiling)
                  << "local " << local << " at round " << wm;
              pinned_checks += tap_raw->last < wm ? 1 : 0;
            });
  // The session group held the watermark below the round's end at times.
  EXPECT_GT(pinned_checks, 0);
  EXPECT_EQ(cluster.cursor_violations(), 0u);
  EXPECT_EQ(WindowCount(got), WindowCount(want));
  ExpectSameResults(got, want, /*tol=*/0.0);
}

TEST(DesisCluster, RuntimeSessionQueryPutsFixedGroupBackUnderPinning) {
  // The KeyEquals(1) group starts fixed-only, so its locals may advertise
  // past its open slice. A session query joining it mid-stream makes the
  // group pin again; the partial its locals seal at the join starts behind
  // the root's watermark, and must still reach the root before the new
  // session scan passes it.
  const std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100'000), AggregationFunction::kSum),
      MakeQuery(2, WindowSpec::Tumbling(250'000), AggregationFunction::kSum,
                Predicate::KeyEquals(1)),
  };
  const Query session =
      MakeQuery(3, WindowSpec::Session(15'000), AggregationFunction::kCount,
                Predicate::KeyEquals(1));
  const auto streams = BurstyStreams(2, 2'000, 97);
  const Timestamp end_ts = LastEventTs(streams) + 260'000;
  const ResultMap want = RunReference(queries, streams, end_ts);
  ASSERT_EQ(want.size(), queries.size());

  for (const Timestamp add_at : {130'000, 370'000}) {
    SCOPED_TRACE(testing::Message() << "session query added at " << add_at);
    Cluster cluster(ClusterSystem::kDesis, {2, 1});
    cluster.set_transport(std::make_unique<ThreadedTransport>());
    ASSERT_TRUE(cluster.Configure(queries).ok());
    ResultMap got;
    cluster.set_sink([&](const WindowResult& r) {
      got[r.query_id][r.window_start] = r;
    });
    RunRounds(cluster, streams, end_ts,
              [&](Timestamp wm) {
                if (wm != add_at) return;
                ASSERT_TRUE(cluster.AddQuery(session).ok());
                ASSERT_EQ(cluster.QueryGroupsSnapshot().size(), 2u);
              },
              nullptr);
    EXPECT_EQ(cluster.cursor_violations(), 0u);
    EXPECT_FALSE(got[3].empty());
    ResultMap resident = got;
    resident.erase(3);
    EXPECT_EQ(WindowCount(resident), WindowCount(want));
    ExpectSameResults(resident, want, /*tol=*/0.0);
  }
}

TEST(DesisCluster, DeeperTopologyGivesSameResults) {
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kAverage)};
  auto streams = RandomStreams(6, 150, 1000, 33);
  ResultMap per_topology[3];
  int idx = 0;
  for (int intermediates : {0, 1, 3}) {
    Cluster cluster(ClusterSystem::kDesis, {6, intermediates});
    ASSERT_TRUE(cluster.Configure(queries).ok());
    per_topology[idx++] = RunCluster(cluster, streams, 50, 1200);
  }
  ExpectSameResults(per_topology[1], per_topology[0]);
  ExpectSameResults(per_topology[2], per_topology[0]);
}

TEST(CentralizedCluster, ScottyMatchesReference) {
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kAverage),
      MakeQuery(2, WindowSpec::Tumbling(100), AggregationFunction::kMedian),
  };
  auto streams = RandomStreams(3, 200, 1000, 9);
  Cluster cluster(ClusterSystem::kScotty, {3, 1});
  ASSERT_TRUE(cluster.Configure(queries).ok());
  auto got = RunCluster(cluster, streams, 50, 1200);
  auto want = RunReference(queries, streams, 1200);
  ExpectSameResults(got, want);
}

TEST(CentralizedCluster, CeBufferMatchesReference) {
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kSum)};
  auto streams = RandomStreams(2, 150, 800, 17);
  Cluster cluster(ClusterSystem::kCeBuffer, {2, 1});
  ASSERT_TRUE(cluster.Configure(queries).ok());
  auto got = RunCluster(cluster, streams, 40, 1000);
  auto want = RunReference(queries, streams, 1000);
  ExpectSameResults(got, want);
}

TEST(DiscoCluster, TumblingAverageMatchesReference) {
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kAverage)};
  auto streams = RandomStreams(3, 200, 1000, 23);
  Cluster cluster(ClusterSystem::kDisco, {3, 1});
  ASSERT_TRUE(cluster.Configure(queries).ok());
  auto got = RunCluster(cluster, streams, 50, 1200);
  auto want = RunReference(queries, streams, 1200);
  ExpectSameResults(got, want, 1e-6);  // text round-trip keeps 17 digits
}

TEST(DiscoCluster, MedianForwardsEventsAndMatches) {
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kMedian)};
  auto streams = RandomStreams(2, 150, 800, 29);
  Cluster cluster(ClusterSystem::kDisco, {2, 1});
  ASSERT_TRUE(cluster.Configure(queries).ok());
  auto got = RunCluster(cluster, streams, 40, 1000);
  auto want = RunReference(queries, streams, 1000);
  ExpectSameResults(got, want, 1e-6);
}

TEST(NetworkOverhead, DesisSavesBytesForDecomposable) {
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kAverage)};
  auto streams = RandomStreams(3, 2000, 5000, 3);
  Cluster desis(ClusterSystem::kDesis, {3, 1});
  Cluster scotty(ClusterSystem::kScotty, {3, 1});
  ASSERT_TRUE(desis.Configure(queries).ok());
  ASSERT_TRUE(scotty.Configure(queries).ok());
  RunCluster(desis, streams, 100, 6000);
  RunCluster(scotty, streams, 100, 6000);

  const uint64_t desis_bytes = desis.BytesSentByRole(NodeRole::kLocal) +
                               desis.BytesSentByRole(NodeRole::kIntermediate);
  const uint64_t scotty_bytes =
      scotty.BytesSentByRole(NodeRole::kLocal) +
      scotty.BytesSentByRole(NodeRole::kIntermediate);
  // Decomposable functions: partial results instead of raw events — the
  // paper reports ~99% savings (Fig 11a).
  EXPECT_LT(desis_bytes * 10, scotty_bytes);
}

TEST(NetworkOverhead, MedianForcesEventsToRootEverywhere) {
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kMedian)};
  auto streams = RandomStreams(3, 2000, 5000, 4);
  Cluster desis(ClusterSystem::kDesis, {3, 1});
  Cluster scotty(ClusterSystem::kScotty, {3, 1});
  ASSERT_TRUE(desis.Configure(queries).ok());
  ASSERT_TRUE(scotty.Configure(queries).ok());
  RunCluster(desis, streams, 100, 6000);
  RunCluster(scotty, streams, 100, 6000);

  const uint64_t desis_bytes = desis.BytesSentByRole(NodeRole::kLocal);
  const uint64_t scotty_bytes = scotty.BytesSentByRole(NodeRole::kLocal);
  // All event values cross the wire either way (Fig 11b): same magnitude.
  EXPECT_LT(desis_bytes, scotty_bytes * 3);
  EXPECT_GT(desis_bytes * 3, scotty_bytes);
}

TEST(NetworkOverhead, DiscoStringsCostMoreThanDesisBinary) {
  std::vector<Query> queries = {
      MakeQuery(1, WindowSpec::Tumbling(100), AggregationFunction::kMedian)};
  auto streams = RandomStreams(2, 1000, 3000, 6);
  Cluster desis(ClusterSystem::kDesis, {2, 1});
  Cluster disco(ClusterSystem::kDisco, {2, 1});
  ASSERT_TRUE(desis.Configure(queries).ok());
  ASSERT_TRUE(disco.Configure(queries).ok());
  RunCluster(desis, streams, 100, 4000);
  RunCluster(disco, streams, 100, 4000);
  EXPECT_GT(disco.BytesSentByRole(NodeRole::kLocal),
            desis.BytesSentByRole(NodeRole::kLocal));
}

}  // namespace
}  // namespace desis
