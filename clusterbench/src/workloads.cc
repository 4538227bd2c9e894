#include "workloads.h"

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "core/engine.h"

namespace desis::clusterbench {
namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A query without its id (Number assigns ids once the list is built).
Query MakeQuery(WindowSpec window, AggregationFunction fn,
                double quantile = 0.5, Predicate pred = Predicate::All()) {
  Query q;
  q.window = window;
  q.agg = {fn, quantile};
  q.predicate = pred;
  return q;
}

/// Integer-valued streams, `gap` apart per local, local i offset by i µs so
/// the k-way merge has no ties.
void MakeStreams(Workload* w, Rng& rng, size_t events_per_local, Timestamp gap,
                 uint32_t keys, uint32_t value_range) {
  w->streams.assign(static_cast<size_t>(w->locals), {});
  Timestamp max_ts = 0;
  for (int local = 0; local < w->locals; ++local) {
    auto& stream = w->streams[static_cast<size_t>(local)];
    stream.reserve(events_per_local);
    for (size_t j = 0; j < events_per_local; ++j) {
      const Timestamp ts = static_cast<Timestamp>(j) * gap + local;
      stream.push_back({ts, static_cast<uint32_t>(rng.NextBounded(keys)),
                        static_cast<double>(rng.NextBounded(value_range)),
                        kNoMarker});
      max_ts = std::max(max_ts, ts);
    }
  }
  w->total_events = events_per_local * static_cast<uint64_t>(w->locals);
  w->rounds = static_cast<size_t>(max_ts / kRound) + 1;
  w->round_begin.assign(w->streams.size(), {});
  for (size_t i = 0; i < w->streams.size(); ++i) {
    const auto& stream = w->streams[i];
    auto& begin = w->round_begin[i];
    begin.reserve(w->rounds + 1);
    size_t cursor = 0;
    for (size_t k = 0; k <= w->rounds; ++k) {
      const Timestamp round_start = static_cast<Timestamp>(k) * kRound;
      while (cursor < stream.size() && stream[cursor].ts < round_start) {
        ++cursor;
      }
      begin.push_back(cursor);
    }
  }
}

template <typename T>
void Shuffle(Rng& rng, std::vector<T>* v) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.NextBounded(i)]);
  }
}

/// Numbers the queries 1..n in construction order. The seed never reorders
/// them: query order decides group formation and emission order, which
/// would make some seeds cost more than others.
void Number(std::vector<Query>* queries) {
  for (size_t i = 0; i < queries->size(); ++i) {
    (*queries)[i].id = static_cast<QueryId>(i + 1);
  }
}

/// `pairs` runtime adds of copies of random resident queries under fresh
/// ids, each removed again within a quarter of the run.
void AddChurn(Workload* w, Rng& rng, QueryId pairs) {
  const size_t span = w->rounds / 4;
  for (QueryId j = 0; j < pairs; ++j) {
    ChurnOp add;
    add.round = 1 + rng.NextBounded(w->rounds - span - 1);
    add.add = true;
    add.query = w->queries[rng.NextBounded(w->queries.size())];
    add.query.id = kChurnIdBase + j;
    ChurnOp remove;
    remove.round = add.round + 1 + rng.NextBounded(span);
    remove.query.id = add.query.id;
    w->churn.push_back(add);
    w->churn.push_back(remove);
  }
  std::stable_sort(w->churn.begin(), w->churn.end(),
                   [](const ChurnOp& a, const ChurnOp& b) {
                     return a.round < b.round;
                   });
}

// 4 locals x 2 intermediates, threaded; 20 decomposable queries over
// 100 ms - 1 s tumbling and sliding windows, a quarter with key predicates
// (seeded keys); 10 keys, events 10 µs apart. The optimizer is on and 20
// queries are added and removed while the stream runs: this workload also
// carries the optimizer and query-churn layers.
void FaninDecomposable(Workload* w, Rng& rng) {
  w->locals = 4;
  w->intermediates = 2;
  w->threaded = true;
  w->optimize_plans = true;
  w->open_loop_speedup = 40;
  w->closed_passes = 40;
  w->open_passes = 24;
  MakeStreams(w, rng, 2'000'000, 10 * kMicrosecond, 10, 1000);
  using F = AggregationFunction;
  const F fns[] = {F::kSum, F::kCount, F::kAverage, F::kMin, F::kMax};
  const Timestamp tumbling[] = {100, 200, 250, 500, 1000};
  const Timestamp lengths[] = {500, 1000};
  const Timestamp slides[] = {100, 200};
  // Five predicate queries on five distinct seeded keys: one lane each.
  std::vector<uint32_t> keys = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  Shuffle(rng, &keys);
  for (int i = 0; i < 20; ++i) {
    const WindowSpec window =
        i < 10 ? WindowSpec::Tumbling(tumbling[i % 5] * kMillisecond)
               : WindowSpec::Sliding(lengths[i % 2] * kMillisecond,
                                     slides[(i / 2) % 2] * kMillisecond);
    const Predicate pred = i % 4 == 3 ? Predicate::KeyEquals(keys[i / 4])
                                      : Predicate::All();
    w->queries.push_back(MakeQuery(window, fns[(i + i / 5) % 5], 0.5, pred));
  }
  Number(&w->queries);
  AddChurn(w, rng, 20);
  w->final_watermark =
      static_cast<Timestamp>(w->rounds) * kRound + 2 * kSecond;
}

// 2 locals x 1 intermediate, threaded; MEDIAN / QUANTILE(0.9, 0.99) over
// 100-250 ms tumbling and sliding windows, plus one SUM.
void FaninHolistic(Workload* w, Rng& rng) {
  w->locals = 2;
  w->intermediates = 1;
  w->threaded = true;
  w->open_loop_speedup = 20;
  w->closed_passes = 40;
  w->open_passes = 24;
  MakeStreams(w, rng, 1'000'000, 10 * kMicrosecond, 10, 1000);
  using F = AggregationFunction;
  auto sliding = [](Timestamp ms) {
    return WindowSpec::Sliding(ms * kMillisecond, 50 * kMillisecond);
  };
  auto tumbling = [](Timestamp ms) {
    return WindowSpec::Tumbling(ms * kMillisecond);
  };
  w->queries = {
      MakeQuery(sliding(100), F::kMedian),
      MakeQuery(sliding(150), F::kQuantile, 0.9),
      MakeQuery(sliding(200), F::kQuantile, 0.99),
      MakeQuery(sliding(250), F::kMedian),
      MakeQuery(sliding(200), F::kQuantile, 0.9),
      MakeQuery(tumbling(100), F::kQuantile, 0.99),
      MakeQuery(tumbling(250), F::kMedian),
      MakeQuery(tumbling(100), F::kSum),
  };
  Number(&w->queries);
  w->final_watermark =
      static_cast<Timestamp>(w->rounds) * kRound + 2 * kSecond;
}

// The correlated-window mix of query i: shape i % 5 of 1/5/10/60 s tumbling
// and 60 s / 5 s sliding, function i % 10 (80% SUM, 10% AVG, 10% MAX), and
// key predicate keys[i % 100]. As in bench_correlated, every key lane
// carries one window shape and one function, which is what lets the
// optimizer narrow lane operator masks and install factor windows; the seed
// only permutes which key that is.
Query CorrelatedQuery(size_t i, const std::vector<uint32_t>& keys) {
  WindowSpec window;
  switch (i % 5) {
    case 0: window = WindowSpec::Tumbling(1 * kSecond); break;
    case 1: window = WindowSpec::Tumbling(5 * kSecond); break;
    case 2: window = WindowSpec::Tumbling(60 * kSecond); break;
    case 3: window = WindowSpec::Sliding(60 * kSecond, 5 * kSecond); break;
    default: window = WindowSpec::Tumbling(10 * kSecond); break;
  }
  const size_t r = i % 10;
  const AggregationFunction fn =
      r < 8 ? AggregationFunction::kSum
            : (r == 8 ? AggregationFunction::kAverage
                      : AggregationFunction::kMax);
  return MakeQuery(window, fn, 0.5,
                   Predicate::KeyEquals(keys[i % keys.size()]));
}

// 10k correlated-window queries over 2 locals x 1 intermediate, inline, one
// driver, optimizer on; 100 runtime adds and 100 removes of fresh ids.
void Shared10kChurn(Workload* w, Rng& rng) {
  w->locals = 2;
  w->intermediates = 1;
  w->threaded = false;
  w->optimize_plans = true;
  w->open_loop_speedup = 200;
  w->closed_passes = 20;
  w->open_passes = 12;
  MakeStreams(w, rng, 200'000, kMillisecond, 100, 10);
  std::vector<uint32_t> keys(100);
  for (uint32_t k = 0; k < keys.size(); ++k) keys[k] = k;
  Shuffle(rng, &keys);
  for (size_t i = 0; i < 10'000; ++i) {
    w->queries.push_back(CorrelatedQuery(i, keys));
  }
  Number(&w->queries);
  AddChurn(w, rng, 100);
  w->final_watermark =
      static_cast<Timestamp>(w->rounds) * kRound + 2 * kMinute;
}

}  // namespace

uint64_t WindowHash(const WindowResult& r) {
  uint64_t bits = 0;
  std::memcpy(&bits, &r.value, sizeof(bits));
  uint64_t h = Mix64(static_cast<uint64_t>(r.window_start));
  h = Mix64(h ^ static_cast<uint64_t>(r.window_end));
  h = Mix64(h ^ bits);
  return Mix64(h ^ r.event_count);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "fanin_decomposable", "fanin_holistic", "shared_10k_churn"};
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  *out = Workload{};
  out->name = name;
  uint64_t salt = 0xcbf29ce484222325ULL;  // FNV-1a of the name
  for (char c : name) {
    salt = (salt ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  Rng rng(Mix64(seed) ^ salt);
  if (name == "fanin_decomposable") {
    FaninDecomposable(out, rng);
  } else if (name == "fanin_holistic") {
    FaninHolistic(out, rng);
  } else if (name == "shared_10k_churn") {
    Shared10kChurn(out, rng);
  } else {
    return false;
  }
  return true;
}

std::vector<Fingerprint> ReferenceFingerprints(const Workload& w) {
  // k-way merge of the per-local streams (ties go to the lower local).
  std::vector<Event> merged;
  merged.reserve(w.total_events);
  std::vector<size_t> cursor(w.streams.size(), 0);
  const size_t n = w.streams.size();
  for (;;) {
    size_t best = n;
    for (size_t i = 0; i < n; ++i) {
      if (cursor[i] == w.streams[i].size()) continue;
      if (best == n ||
          w.streams[i][cursor[i]].ts < w.streams[best][cursor[best]].ts) {
        best = i;
      }
    }
    if (best == n) break;
    merged.push_back(w.streams[best][cursor[best]++]);
  }

  std::vector<Fingerprint> want(w.queries.size());
  DesisEngine engine;
  if (!engine.Configure(w.queries).ok()) return {};
  engine.set_sink([&want](const WindowResult& r) {
    Fingerprint& f = want[static_cast<size_t>(r.query_id - 1)];
    ++f.windows;
    f.hash += WindowHash(r);
  });
  engine.IngestBatch(merged.data(), merged.size());
  engine.AdvanceTo(w.final_watermark);
  return want;
}

}  // namespace desis::clusterbench
