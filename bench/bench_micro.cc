// Microbenchmarks (google-benchmark) for the engine's primitives: operator
// folds, partial merges, serialization, slicing, root window assembly,
// query-group formation, and batched ingest (with the flight-recorder
// overhead probe).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "common/rng.h"
#include "common/serde.h"
#include "core/engine.h"
#include "core/operators.h"
#include "core/query_analyzer.h"
#include "core/root_assembler.h"
#include "gen/data_generator.h"
#include "harness.h"

namespace desis {
namespace {

void BM_OperatorAdd(benchmark::State& state) {
  const OperatorMask mask = static_cast<OperatorMask>(state.range(0));
  PartialAggregate agg(mask);
  double v = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agg.Add(v));
    v += 0.5;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OperatorAdd)
    ->Arg(MaskOf(OperatorKind::kSum))
    ->Arg(MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount))
    ->Arg(MaskOf(OperatorKind::kDecomposableSort))
    ->Arg(MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount) |
          MaskOf(OperatorKind::kMultiply) |
          MaskOf(OperatorKind::kDecomposableSort));

void BM_PartialMerge(benchmark::State& state) {
  const OperatorMask mask =
      MaskOf(OperatorKind::kSum) | MaskOf(OperatorKind::kCount) |
      MaskOf(OperatorKind::kDecomposableSort);
  PartialAggregate a(mask);
  PartialAggregate b(mask);
  for (int i = 0; i < 100; ++i) {
    a.Add(i);
    b.Add(i * 2);
  }
  a.Seal();
  b.Seal();
  for (auto _ : state) {
    PartialAggregate acc = a;
    acc.Merge(b);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_PartialMerge);

void BM_SortedMerge(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SortedState a;
  SortedState b;
  for (int i = 0; i < n; ++i) {
    a.Add(static_cast<double>((i * 7) % n));
    b.Add(static_cast<double>((i * 13) % n));
  }
  a.Seal();
  b.Seal();
  for (auto _ : state) {
    SortedState acc = a;
    acc.Merge(b);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_SortedMerge)->Arg(100)->Arg(10000);

void BM_PartialSerialize(benchmark::State& state) {
  PartialAggregate agg(MaskOf(OperatorKind::kSum) |
                       MaskOf(OperatorKind::kCount) |
                       MaskOf(OperatorKind::kDecomposableSort));
  for (int i = 0; i < 16; ++i) agg.Add(i);
  agg.Seal();
  for (auto _ : state) {
    ByteWriter out;
    agg.SerializeTo(out);
    ByteReader in(out.bytes());
    benchmark::DoNotOptimize(PartialAggregate::DeserializeFrom(in));
  }
}
BENCHMARK(BM_PartialSerialize);

void BM_SlicerIngest(benchmark::State& state) {
  const int num_queries = static_cast<int>(state.range(0));
  std::vector<Query> queries;
  for (int i = 0; i < num_queries; ++i) {
    Query q;
    q.id = static_cast<QueryId>(i + 1);
    q.window = WindowSpec::Tumbling(((i % 10) + 1) * kSecond);
    q.agg = {i % 2 == 0 ? AggregationFunction::kAverage
                        : AggregationFunction::kSum,
             0};
    queries.push_back(q);
  }
  DesisEngine engine;
  (void)engine.Configure(queries);
  DataGeneratorConfig cfg;
  auto events = DataGenerator(cfg).Take(1 << 16);
  size_t i = 0;
  for (auto _ : state) {
    engine.Ingest(events[i & (events.size() - 1)]);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlicerIngest)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);

// Root window assembly over sorted slice runs, with clusterbench
// fanin_holistic's query mix (MEDIAN / QUANTILE(0.9, 0.99) over 100-250 ms
// windows sliding by 50 ms and tumbling, plus one SUM) and its root input:
// 200 slice partials of 50 ms with 10k integer values each. Every partial
// reaches the assembler as an rvalue, as the root node hands it over, and
// the watermark follows each slice end, so windows close as they would at
// a root. Items are events.
void BM_AssembleSortedWindows(benchmark::State& state) {
  constexpr int kSlices = 200;
  constexpr int kValuesPerSlice = 10'000;
  constexpr Timestamp kSliceLen = 50 * kMillisecond;
  using F = AggregationFunction;
  auto query = [](QueryId id, WindowSpec window, F fn, double quantile) {
    Query q;
    q.id = id;
    q.window = window;
    q.agg = {fn, quantile};
    return q;
  };
  auto sliding = [](Timestamp ms) {
    return WindowSpec::Sliding(ms * kMillisecond, kSliceLen);
  };
  auto tumbling = [](Timestamp ms) {
    return WindowSpec::Tumbling(ms * kMillisecond);
  };
  const std::vector<Query> queries = {
      query(1, sliding(100), F::kMedian, 0.5),
      query(2, sliding(150), F::kQuantile, 0.9),
      query(3, sliding(200), F::kQuantile, 0.99),
      query(4, sliding(250), F::kMedian, 0.5),
      query(5, sliding(200), F::kQuantile, 0.9),
      query(6, tumbling(100), F::kQuantile, 0.99),
      query(7, tumbling(250), F::kMedian, 0.5),
      query(8, tumbling(100), F::kSum, 0.5),
  };
  QueryAnalyzer analyzer(DeploymentMode::kDecentralized,
                         SharingPolicy::kCrossFunction);
  const QueryGroup group = analyzer.Analyze(queries).value().front();

  Rng rng(static_cast<uint64_t>(state.range(0)));
  std::vector<SliceRecord> slices(kSlices);
  std::vector<double> values(kValuesPerSlice);
  for (int i = 0; i < kSlices; ++i) {
    SliceRecord& rec = slices[static_cast<size_t>(i)];
    rec.id = static_cast<uint64_t>(i);
    rec.start = i * kSliceLen;
    rec.end = rec.start + kSliceLen;
    rec.last_event_ts = rec.end - 1;
    PartialAggregate agg(group.mask);
    for (double& v : values) v = static_cast<double>(rng.NextBounded(1000));
    agg.AddN(values.data(), values.size());
    agg.Seal();
    rec.lanes = {agg};
    rec.lane_events = {kValuesPerSlice};
    rec.lane_last_ts = {rec.last_event_ts};
  }

  uint64_t checksum = 0;
  uint64_t windows = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<SliceRecord> batch = slices;
    EngineStats stats;
    RootAssembler root(group, &stats, [&](const WindowResult& r) {
      uint64_t bits = 0;
      std::memcpy(&bits, &r.value, sizeof(bits));
      checksum += bits ^ r.event_count;
    });
    state.ResumeTiming();
    for (SliceRecord& rec : batch) {
      const Timestamp end = rec.end;
      root.AddPartial(std::move(rec));
      root.AdvanceTo(end);
    }
    root.AdvanceTo(kSlices * kSliceLen + 10 * kSliceLen);
    benchmark::DoNotOptimize(checksum);
    windows = stats.windows_fired;
  }
  state.counters["windows"] = static_cast<double>(windows);
  state.SetItemsProcessed(state.iterations() * kSlices * kValuesPerSlice);
}
BENCHMARK(BM_AssembleSortedWindows)->Arg(21)->Unit(benchmark::kMillisecond);

// Multi-query tumbling+sliding time-window workload for the batched-ingest
// throughput comparison: all specs are fixed-size time windows, so the
// slicer's run-based fast path applies end to end.
std::vector<Query> ThroughputQueries() {
  std::vector<Query> queries;
  QueryId id = 1;
  for (int i = 0; i < 4; ++i) {
    Query q;
    q.id = id++;
    q.window = WindowSpec::Tumbling((i + 1) * kSecond);
    q.agg = {i % 2 == 0 ? AggregationFunction::kAverage
                        : AggregationFunction::kSum,
             0};
    queries.push_back(q);
  }
  for (int i = 0; i < 4; ++i) {
    Query q;
    q.id = id++;
    q.window = WindowSpec::Sliding(2 * (i + 1) * kSecond, 500 * kMillisecond);
    q.agg = {i % 2 == 0 ? AggregationFunction::kMax : AggregationFunction::kSum,
             0};
    queries.push_back(q);
  }
  return queries;
}

/// Accumulated batch-1024 ingest timings with and without a flight
/// recorder attached, for the recorder-overhead self-check (the recorder
/// only sees control-plane events — slice seals, watermark moves — so its
/// cost must vanish in the per-event noise; docs/METRICS.md).
struct RecorderOverheadSample {
  int64_t timed_ns = 0;
  int64_t events = 0;
};

RecorderOverheadSample& RecorderSample(bool with_recorder) {
  static RecorderOverheadSample samples[2];
  return samples[with_recorder ? 1 : 0];
}

constexpr size_t kOverheadProbeBatch = 1024;

// Feeds the same 128k-event stream through a fresh Desis engine per
// iteration; batch == 0 uses the per-event Ingest() path, otherwise
// IngestBatch() in `batch`-sized chunks. `with_recorder` attaches a
// per-iteration flight recorder (the overhead probe pair at batch 1024).
void IngestThroughput(benchmark::State& state, size_t batch,
                      bool with_recorder = false) {
  DataGeneratorConfig cfg;
  const std::vector<Event> events = DataGenerator(cfg).Take(1 << 17);
  const std::vector<Query> queries = ThroughputQueries();
  for (auto _ : state) {
    state.PauseTiming();
    DesisEngine engine;
    obs::FlightRecorder recorder;
    if (with_recorder) engine.set_flight_recorder(&recorder);
    (void)engine.Configure(queries);
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    if (batch == 0) {
      for (const Event& e : events) engine.Ingest(e);
    } else {
      for (size_t i = 0; i < events.size(); i += batch) {
        engine.IngestBatch(events.data() + i,
                           std::min(batch, events.size() - i));
      }
    }
    benchmark::DoNotOptimize(engine.stats().operator_executions);
    const auto t1 = std::chrono::steady_clock::now();
    if (batch == kOverheadProbeBatch) {
      RecorderOverheadSample& sample = RecorderSample(with_recorder);
      sample.timed_ns +=
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count();
      sample.events += static_cast<int64_t>(events.size());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}

void BM_IngestPerEvent(benchmark::State& state) { IngestThroughput(state, 0); }
BENCHMARK(BM_IngestPerEvent);

void BM_IngestBatch(benchmark::State& state) {
  IngestThroughput(state, static_cast<size_t>(state.range(0)));
}
// Batch-size sweep, up to a whole-stream batch.
BENCHMARK(BM_IngestBatch)
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(1 << 17);

// The flight-recorder overhead probe: identical workload to
// BM_IngestBatch/1024, with a recorder attached. Its sidecar pair (see
// RecordRecorderOverhead) is the "recorder is free on the hot path" gate.
void BM_IngestBatchRecorded(benchmark::State& state) {
  IngestThroughput(state, kOverheadProbeBatch, /*with_recorder=*/true);
}
BENCHMARK(BM_IngestBatchRecorded);

/// Folds the recorder on/off probe pair into the sidecar and self-checks
/// the overhead band: recorder-on throughput within 25% of recorder-off
/// (generous against scheduler noise; the recorder's per-event cost is a
/// handful of relaxed stores on control-plane events only). Returns true
/// on violation so main can exit non-zero. No-op (returns false) when the
/// probe pair did not run (--benchmark_filter) or OBS is off.
bool RecordRecorderOverhead() {
  const RecorderOverheadSample& off = RecorderSample(false);
  const RecorderOverheadSample& on = RecorderSample(true);
  if (off.timed_ns <= 0 || on.timed_ns <= 0) return false;
  const double eps_off = static_cast<double>(off.events) * 1e9 /
                         static_cast<double>(off.timed_ns);
  const double eps_on = static_cast<double>(on.events) * 1e9 /
                        static_cast<double>(on.timed_ns);
  const double overhead = eps_on > 0 ? eps_off / eps_on - 1.0 : 0.0;
  for (const bool recorded : {false, true}) {
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"system\":\"Desis\",\"batch\":%zu,\"recorder\":%s,"
                  "\"events_per_sec\":%g,\"recorder_overhead\":%g}",
                  kOverheadProbeBatch, recorded ? "true" : "false",
                  recorded ? eps_on : eps_off, recorded ? overhead : 0.0);
    char label[64];
    std::snprintf(label, sizeof(label), "IngestBatch1024 recorder=%s",
                  recorded ? "on" : "off");
    bench::Sidecar::Instance().RecordRun(label, head, "[]");
  }
  std::printf("flight-recorder overhead at batch %zu: %.1f%%\n",
              kOverheadProbeBatch, overhead * 100.0);
  if (overhead > 0.25) {
    std::fprintf(stderr,
                 "FAIL: flight recorder cost %.1f%% ingest throughput "
                 "(band: 25%%)\n",
                 overhead * 100.0);
    return true;
  }
  return false;
}

void BM_QueryAnalyzer(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<Query> queries;
  for (int i = 0; i < n; ++i) {
    Query q;
    q.id = static_cast<QueryId>(i + 1);
    q.window = WindowSpec::Tumbling((i % 1000 + 1) * 10 * kMillisecond);
    q.agg = {AggregationFunction::kAverage, 0};
    q.predicate = Predicate::KeyEquals(static_cast<uint32_t>(i % 10));
    queries.push_back(q);
  }
  QueryAnalyzer analyzer;
  for (auto _ : state) {
    auto groups = analyzer.Analyze(queries);
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_QueryAnalyzer)->Arg(100)->Arg(10000);

}  // namespace
}  // namespace desis

// BENCHMARK_MAIN plus the recorder-overhead sidecar (bench_micro_metrics.json
// or $DESIS_METRICS_OUT): the probe pair's timings only exist after the run
// loop, and the sidecar is skipped when the pair was filtered out.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const bool overhead_violated = desis::RecordRecorderOverhead();
  if (desis::bench::Sidecar::Instance().num_runs() > 0) {
    desis::bench::WriteMetricsSidecar("bench_micro");
  }
  return overhead_violated ? 1 : 0;
}
