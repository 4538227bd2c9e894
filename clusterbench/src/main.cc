// Whole-cluster benchmark: runs one named workload against the public
// Cluster API, checks every window against a single-node reference, and
// prints end-to-end metrics (timed mode) or per-layer metrics (traced mode).
// The last line of stdout is one JSON object; README.md documents the
// metrics, the workloads and the layer -> end-to-end map.
//
//   cluster_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--span-dir DIR]

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/message.h"
#include "passes.h"
#include "spans.h"
#include "workloads.h"

namespace desis::clusterbench {
namespace {

// ----------------------------------------------------------------- stats --

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

std::vector<double> ToDoubles(const std::vector<int64_t>& v, double scale) {
  std::vector<double> out;
  out.reserve(v.size());
  for (int64_t x : v) out.push_back(static_cast<double>(x) * scale);
  return out;
}

// --------------------------------------------------------------- process --

/// A field of /proc/self/status in kB (0 when unavailable).
double ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::atof(line.c_str() + n + 1);
    }
  }
  return 0;
}

/// Resets VmHWM to the current RSS; false when the kernel refuses.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// Machine-wide (busy, steal) CPU seconds from /proc/stat. Steal is time a
/// vCPU was runnable but the hypervisor ran something else: the host noise
/// every wall-clock figure here is exposed to.
std::pair<double, double> BusyAndStealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  return {(user + nice + system + irq + softirq + steal) / hz, steal / hz};
}

// ---------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Counts every checked pass into attempted/failed; any failure makes the
/// run incorrect.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool ok = true;

  void Fail(const std::string& why) {
    ok = false;
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  }
  void Check(const char* what, const PassResult& pass,
             const std::vector<Fingerprint>& want) {
    const CheckResult c = CheckPass(pass, want);
    attempted += c.expected;
    failed += c.failed;
    if (c.failed > 0) {
      Fail(std::string(what) + ": " + std::to_string(c.failed) + " of " +
           std::to_string(c.expected) + " windows/query ops failed");
    }
  }
};

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-44s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.ok ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Throughput(const Workload& w, const PassResult& p) {
  return static_cast<double>(w.total_events) / p.wall_s;
}

// ------------------------------------------------------------ timed mode --

/// An open-loop pass whose generator started its median round this late
/// (start minus due time) fell behind its schedule, and its latency is not
/// used. Bursts of window emissions delay a few rounds in every pass; a
/// generator that keeps up catches up again, so the median stays near the
/// wake-up jitter.
constexpr double kMaxLateP50Ms = 0.5;

/// A pass during which the host stole more than this share of the busy vCPU
/// time is invalid: it measures the host. On fanin_holistic every vCPU is
/// busy, and a vCPU taken away for milliseconds stalls the generator: runs
/// at 16-47% steal read p99 5-15 ms, runs at up to 5% steal 1.7-1.8 ms.
/// Closed-loop throughput on fanin_decomposable halved in such stretches.
constexpr double kMaxStealShare = 0.05;

/// Passes continue until the workload's count of each kind is valid, or
/// this many times that count has run.
constexpr size_t kMaxPassFactor = 3;

/// Closed-loop passes run for at least this long before any is measured.
constexpr double kWarmupSeconds = 2.0;

/// Peak-RSS passes per run; the figure is their median. Under threaded
/// delivery a single pass's figure moves by about 20% with how much the
/// scheduling let the mailboxes queue.
constexpr int kPeakRssPasses = 15;

/// Setup samples are averaged in groups of this many consecutive ones, and
/// setup_s is the median of the group means. A single sample's cost depends
/// on whether the new delivery workers start on an idle vCPU; that splits
/// single samples into two modes, and a plain median jumps between them as
/// their mix moves from run to run.
constexpr size_t kSetupGroup = 8;

double SetupSeconds(const std::vector<double>& samples) {
  std::vector<double> means;
  for (size_t i = 0; i + kSetupGroup <= samples.size(); i += kSetupGroup) {
    double sum = 0;
    for (size_t j = i; j < i + kSetupGroup; ++j) sum += samples[j];
    means.push_back(sum / static_cast<double>(kSetupGroup));
  }
  return Median(means);
}

/// Peak resident memory one pass of the workload's own configuration adds
/// on top of what the process already holds (inputs and reference
/// fingerprints): freed heap goes back to the kernel first, then VmHWM is
/// reset and read back after the pass. Under threaded delivery this includes
/// the messages the mailboxes hold while the pass runs.
double PassPeakRssMb(const Workload& w, const std::vector<Fingerprint>& want,
                     Tally* tally) {
  malloc_trim(0);
  const bool reset = ResetPeakRss();
  const double before_kb = ProcStatusKb(reset ? "VmRSS" : "VmHWM");
  const PassResult p = RunPass(w, {w.threaded, false, 0});
  tally->Check("peak-RSS pass", p, want);
  return (ProcStatusKb("VmHWM") - before_kb) / 1024.0;
}

std::vector<Metric> RunTimed(const Workload& w,
                             const std::vector<Fingerprint>& want,
                             double seconds, Tally* tally) {
  const int64_t start = NowNs();
  auto elapsed = [start] {
    return static_cast<double>(NowNs() - start) * 1e-9;
  };

  // Warm-up: a fresh process runs its first passes 2-4x slower (on the
  // 4-vCPU host this slow phase lasts about a second of multi-threaded
  // load). Those passes are checked, reported on their own, and kept out of
  // every metric.
  std::vector<double> cold_s;
  while (cold_s.empty() || elapsed() < kWarmupSeconds) {
    const PassResult p = RunPass(w, {w.threaded, false, 0});
    tally->Check("warm-up pass", p, want);
    cold_s.push_back(p.wall_s);
  }
  std::printf("warm-up: %zu passes, first %.4f s, last %.4f s (excluded)\n",
              cold_s.size(), cold_s.front(), cold_s.back());

  // Measured passes: the workload's fixed number of closed- and open-loop
  // passes, interleaved in that ratio. Closed loop: each driver sends its
  // next round as soon as its previous call returns. Open loop: rounds are
  // sent at the workload's fixed event-time speed-up, so the vCPUs idle
  // between rounds. Run as one block after the closed-loop passes, the
  // open-loop passes of a threaded workload got slower pass after pass (p50
  // 0.1 -> 2 ms within a run); interleaved with closed-loop passes they held
  // 0.1 ms on the same host. Every timing is the median over its passes.
  // Latency is each valid open-loop pass's p50 and p99 over its windows,
  // then the median over the valid passes. A p99 pooled over all passes'
  // windows moved 2x between runs: it sat on the border between passes
  // with and without a multi-ms generator stall.
  std::vector<double> eps, cpu_ns, wire, stolen_eps, stolen_cpu_ns;
  std::vector<double> p50, p99, invalid_p50, invalid_p99;
  const auto [busy0, steal0] = BusyAndStealSeconds();
  const size_t max_closed = kMaxPassFactor * w.closed_passes;
  const size_t max_open = kMaxPassFactor * w.open_passes;
  size_t closed_passes = 0, open_passes = 0;
  auto closed_left = [&] {
    return eps.size() < w.closed_passes && closed_passes < max_closed;
  };
  auto open_left = [&] {
    return p50.size() < w.open_passes && open_passes < max_open;
  };
  while (closed_left() || open_left()) {
    const bool open =
        open_left() && (!closed_left() || open_passes * w.closed_passes <=
                                              closed_passes * w.open_passes);
    const auto [pass_busy0, pass_steal0] = BusyAndStealSeconds();
    const PassResult p = RunPass(w, {w.threaded, open, 0});
    const auto [pass_busy1, pass_steal1] = BusyAndStealSeconds();
    tally->Check(open ? "open-loop pass" : "closed-loop pass", p, want);
    const double steal =
        pass_busy1 > pass_busy0
            ? (pass_steal1 - pass_steal0) / (pass_busy1 - pass_busy0)
            : 0.0;
    const bool stolen = steal > kMaxStealShare;
    if (!open) {
      ++closed_passes;
      (stolen ? stolen_eps : eps).push_back(Throughput(w, p));
      (stolen ? stolen_cpu_ns : cpu_ns)
          .push_back(p.cpu_s * 1e9 / static_cast<double>(w.total_events));
      wire.push_back(static_cast<double>(p.wire_bytes) /
                     static_cast<double>(w.total_events));
      continue;
    }
    ++open_passes;
    const std::vector<double> late = ToDoubles(p.late_ns, 1e-6);
    const std::vector<double> lat = ToDoubles(p.latency_ns, 1e-6);
    const double late_p50 = Quantile(late, 0.5);
    const bool behind = late_p50 > kMaxLateP50Ms;
    const double pass_p50 = Quantile(lat, 0.5);
    const double pass_p99 = Quantile(lat, 0.99);
    std::printf("open-loop pass: %zu windows%s, p50 %.4f ms, p99 %.4f ms, "
                "generator late p50 %.4f ms p99 %.4f ms, steal %.1f%%%s%s\n",
                lat.size(), lat.size() < 1000 ? " (fewer than 1000)" : "",
                pass_p50, pass_p99, late_p50, Quantile(late, 0.99),
                100.0 * steal, behind ? " (invalid: fell behind)" : "",
                stolen ? " (invalid: host steal)" : "");
    const bool valid = !behind && !stolen;
    (valid ? p50 : invalid_p50).push_back(pass_p50);
    (valid ? p99 : invalid_p99).push_back(pass_p99);
  }
  const auto [busy1, steal1] = BusyAndStealSeconds();
  std::printf("host steal during measured passes: %.1f%% of busy vCPU time\n",
              busy1 > busy0 ? 100.0 * (steal1 - steal0) / (busy1 - busy0)
                            : 0.0);
  if (eps.empty()) {
    std::printf("the host stole more than %.0f%% during every closed-loop "
                "pass: they are all used\n", 100.0 * kMaxStealShare);
    eps = stolen_eps;
    cpu_ns = stolen_cpu_ns;
  }
  const size_t valid = p50.size();
  if (valid == 0) {
    // A throughput regression below the fixed rate shows as latency, not as
    // a failed run.
    std::printf("every open-loop pass was invalid: latency is taken over "
                "all of them\n");
    p50 = invalid_p50;
    p99 = invalid_p99;
  }

  std::vector<double> peak_mb;
  std::printf("peak-RSS passes:");
  for (int i = 0; i < kPeakRssPasses; ++i) {
    peak_mb.push_back(PassPeakRssMb(w, want, tally));
    std::printf(" %.2f", peak_mb.back());
  }
  std::printf(" MB\n");

  // Setup samples back to back, at least 400 and until --seconds is spent.
  // A sample taken right after a pass cost up to 3x one taken after another
  // setup, so mixing the two moved the median with their proportion.
  std::vector<double> setup;
  while (setup.size() < 50 * kSetupGroup ||
         (elapsed() < seconds && setup.size() < 2500 * kSetupGroup)) {
    setup.push_back(MeasureSetup(w, w.threaded));
  }

  std::printf("passes: closed %zu (%zu valid, throughput q1 %.4g, q3 %.4g "
              "events/s), open %zu (%zu valid), setup samples %zu "
              "(single-sample q1 %.6g s, q3 %.6g s)\n",
              closed_passes, stolen_eps.size() < closed_passes
                                 ? closed_passes - stolen_eps.size()
                                 : 0,
              Quantile(eps, 0.25), Quantile(eps, 0.75), open_passes, valid,
              setup.size(), Quantile(setup, 0.25), Quantile(setup, 0.75));
  std::printf("failed_frac %.6g ratio\n",
              tally->attempted > 0 ? static_cast<double>(tally->failed) /
                                         static_cast<double>(tally->attempted)
                                   : 0.0);
  return {
      {"setup_s", SetupSeconds(setup), "s"},
      {"throughput_eps", Median(eps), "events/s"},
      {"emit_latency_p50_ms", Median(p50), "ms"},
      {"emit_latency_p99_ms", Median(p99), "ms"},
      {"cpu_ns_per_event", Median(cpu_ns), "ns"},
      {"wire_bytes_per_event", Median(wire), "B"},
      {"peak_rss_mb", Median(peak_mb), "MB"},
  };
}

// ----------------------------------------------------------- traced mode --

// The codec functions return plain values today; the total-decoding item of
// ROADMAP.md makes DecodeFrame/DeserializeFrom return Result<>. The two
// overloads keep this file compiling on both sides of that change, so its
// parent and child commits can be measured with the same benchmark code.
template <typename T>
T Unwrap(T value) {
  return value;
}
template <typename T>
T Unwrap(Result<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "codec replay: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

struct CodecRate {
  double encode_ns_per_byte = 0;
  double decode_ns_per_byte = 0;
};

/// Times `fn` (one sweep over `bytes` wire bytes) until 30 ms have passed.
template <typename Fn>
double NsPerByte(size_t bytes, Fn&& fn) {
  if (bytes == 0) return 0;
  const int64_t t0 = NowNs();
  int64_t t1 = t0;
  size_t sweeps = 0;
  while (sweeps < 3 || t1 - t0 < 30'000'000) {
    fn();
    ++sweeps;
    t1 = NowNs();
  }
  return static_cast<double>(t1 - t0) /
         (static_cast<double>(sweeps) * static_cast<double>(bytes));
}

uint64_t g_codec_checksum = 0;  // printed, so the replay cannot be elided

CodecRate ReplaySlicePartials(const std::vector<Message>& messages) {
  std::vector<SlicePartialMsg> parts;
  std::vector<std::vector<uint8_t>> frames;
  size_t bytes = 0;
  for (const Message& m : messages) {
    ByteReader in(m.payload);
    parts.push_back(Unwrap(SlicePartialMsg::DeserializeFrom(in)));
    frames.push_back(EncodeFrame(m));
    bytes += frames.back().size();
  }
  CodecRate rate;
  rate.encode_ns_per_byte = NsPerByte(bytes, [&] {
    for (size_t i = 0; i < parts.size(); ++i) {
      ByteWriter out;
      parts[i].SerializeTo(out);
      const Message m{MessageType::kSlicePartial, messages[i].group_id,
                      out.TakeBytes()};
      g_codec_checksum += EncodeFrame(m).size();
    }
  });
  rate.decode_ns_per_byte = NsPerByte(bytes, [&] {
    for (const auto& frame : frames) {
      const Message m = Unwrap(DecodeFrame(frame));
      ByteReader in(m.payload);
      g_codec_checksum +=
          Unwrap(SlicePartialMsg::DeserializeFrom(in)).lanes.size();
    }
  });
  return rate;
}

CodecRate ReplayEventBatches(const std::vector<Message>& messages) {
  std::vector<std::vector<Event>> batches;
  std::vector<std::vector<uint8_t>> frames;
  size_t bytes = 0;
  for (const Message& m : messages) {
    batches.push_back(Unwrap(DecodeEventBatch(m.payload)));
    frames.push_back(EncodeFrame(m));
    bytes += frames.back().size();
  }
  CodecRate rate;
  rate.encode_ns_per_byte = NsPerByte(bytes, [&] {
    for (size_t i = 0; i < batches.size(); ++i) {
      const Message m{MessageType::kEventBatch, messages[i].group_id,
                      EncodeEventBatch(batches[i])};
      g_codec_checksum += EncodeFrame(m).size();
    }
  });
  rate.decode_ns_per_byte = NsPerByte(bytes, [&] {
    for (const auto& frame : frames) {
      const Message m = Unwrap(DecodeFrame(frame));
      g_codec_checksum += Unwrap(DecodeEventBatch(m.payload)).size();
    }
  });
  return rate;
}

/// Event batches in the shape locals forward them (512 events), cut from
/// the first local's stream — used when the workload's traffic has none.
std::vector<Message> SyntheticEventBatches(const Workload& w) {
  std::vector<Message> out;
  const auto& stream = w.streams[0];
  for (size_t i = 0; i + 512 <= stream.size() && out.size() < 512; i += 512) {
    const auto first = stream.begin() + static_cast<int64_t>(i);
    const std::vector<Event> batch(first, first + 512);
    out.push_back({MessageType::kEventBatch, 0, EncodeEventBatch(batch)});
  }
  return out;
}

/// Span durations of one kind, in µs, pooled into `out`.
void PoolDurations(const SpanRecorder& rec, SpanKind kind,
                   std::vector<double>* out) {
  for (const auto& t : rec.threads()) {
    for (const Span& s : t->spans) {
      if (s.kind == kind) {
        out->push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      }
    }
  }
}

/// Sum of self time per span kind, in ns.
std::vector<double> SelfTimeByKind(const SpanRecorder& rec) {
  std::vector<double> self(kNumSpanKinds, 0.0);
  for (const auto& t : rec.threads()) {
    for (const Span& s : t->spans) {
      self[static_cast<size_t>(s.kind)] += static_cast<double>(s.self_ns);
    }
  }
  return self;
}

double SendTimeMs(const SpanRecorder& rec) {
  double ns = 0;
  for (const auto& t : rec.threads()) {
    for (const Span& s : t->spans) {
      if (s.kind == SpanKind::kSendToInter || s.kind == SpanKind::kSendToRoot) {
        ns += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
  }
  return ns * 1e-6;
}

std::vector<Metric> RunTraced(const Workload& w,
                              const std::vector<Fingerprint>& want,
                              double seconds, const std::string& span_dir,
                              Tally* tally) {
  const int64_t start = NowNs();
  auto elapsed = [start] {
    return static_cast<double>(NowNs() - start) * 1e-9;
  };
  const double events = static_cast<double>(w.total_events);

  const PassResult cold = RunPass(w, {w.threaded, false, 0});
  tally->Check("cold pass", cold, want);

  // Alternate untraced and traced closed-loop passes of the workload's own
  // configuration; the throughput gap is the tracing overhead.
  std::vector<double> untraced_eps, traced_eps, configure_ms, drain_ms,
      blocked_ms;
  std::vector<double> ingest_us, advance_us, add_us, remove_us, send_inter_us,
      send_root_us;
  std::array<std::vector<double>, 3> busy_ms, busy_share, queue_hwm;
  PassResult last_traced;
  std::unique_ptr<SpanRecorder> last_rec;  // written out after the loop
  while (traced_eps.size() < 3 ||
         (elapsed() < 0.4 * seconds && traced_eps.size() < 50)) {
    const PassResult u = RunPass(w, {w.threaded, false, 0});
    tally->Check("untraced pass", u, want);
    untraced_eps.push_back(Throughput(w, u));
    configure_ms.push_back(u.configure_s * 1e3);

    auto rec_owner = std::make_unique<SpanRecorder>();
    SpanRecorder& rec = *rec_owner;
    SpanRecorder::Activate(&rec);
    PassResult t = RunPass(w, {w.threaded, false, 0});
    SpanRecorder::Activate(nullptr);
    tally->Check("traced pass", t, want);
    traced_eps.push_back(Throughput(w, t));
    configure_ms.push_back(t.configure_s * 1e3);
    drain_ms.push_back(t.drain_s * 1e3);
    blocked_ms.push_back(SendTimeMs(rec));
    PoolDurations(rec, SpanKind::kIngest, &ingest_us);
    PoolDurations(rec, SpanKind::kAdvance, &advance_us);
    PoolDurations(rec, SpanKind::kAddQuery, &add_us);
    PoolDurations(rec, SpanKind::kRemoveQuery, &remove_us);
    PoolDurations(rec, SpanKind::kSendToInter, &send_inter_us);
    PoolDurations(rec, SpanKind::kSendToRoot, &send_root_us);
    for (size_t r = 0; r < 3; ++r) {
      busy_ms[r].push_back(static_cast<double>(t.roles.busy_ns[r]) * 1e-6);
      busy_share[r].push_back(static_cast<double>(t.roles.busy_ns[r]) * 1e-9 /
                              t.wall_s);
      queue_hwm[r].push_back(static_cast<double>(t.roles.queue_hwm[r]));
    }
    last_traced = std::move(t);
    last_rec = std::move(rec_owner);
  }
  if (!span_dir.empty()) {
    last_rec->WriteTsv(span_dir + "/" + w.name + ".passes.tsv");
  }

  // Open-loop generator lateness (untraced, as in the timed run).
  std::vector<int64_t> late;
  for (int i = 0; i < 2; ++i) {
    const PassResult p = RunPass(w, {w.threaded, true, 0});
    tally->Check("open-loop pass", p, want);
    late.insert(late.end(), p.late_ns.begin(), p.late_ns.end());
  }
  const std::vector<double> late_us = ToDoubles(late, 1e-3);

  // Inline ledger: the same job on InlineTransport with one driver thread.
  std::vector<double> inline_eps;
  if (!w.threaded) inline_eps = untraced_eps;
  while (inline_eps.size() < 3) {
    const PassResult p = RunPass(w, {false, false, 0});
    tally->Check("inline pass", p, want);
    inline_eps.push_back(Throughput(w, p));
  }
  SpanRecorder ledger_rec;
  SpanRecorder::Activate(&ledger_rec);
  const PassResult ledger = RunPass(w, {false, false, 64u << 20});
  SpanRecorder::Activate(nullptr);
  tally->Check("inline ledger pass", ledger, want);
  if (!span_dir.empty()) {
    ledger_rec.WriteTsv(span_dir + "/" + w.name + ".ledger.tsv");
  }
  const std::vector<double> self = SelfTimeByKind(ledger_rec);
  auto self_of = [&self](SpanKind k) { return self[static_cast<size_t>(k)]; };
  const double wall_ns = ledger.wall_s * 1e9;
  const double local_ns =
      self_of(SpanKind::kIngest) + self_of(SpanKind::kAdvance);
  const double inter_ns = self_of(SpanKind::kSendToInter);
  const double root_ns = self_of(SpanKind::kSendToRoot);
  const double sink_ns = self_of(SpanKind::kSink);
  const double unattributed_ns =
      wall_ns - local_ns - inter_ns - root_ns - sink_ns;

  // Determinism cross-check: threaded timed configuration vs inline ledger.
  if (!(last_traced.got == ledger.got)) {
    tally->Fail("threaded and inline result fingerprints differ");
  }
  if (last_traced.wire_bytes != ledger.wire_bytes ||
      !(last_traced.messages == ledger.messages)) {
    tally->Fail("threaded and inline wire traffic differ: " +
                std::to_string(last_traced.wire_bytes) + " vs " +
                std::to_string(ledger.wire_bytes) + " bytes");
  }

  // Codec replay over the ledger pass's own frames.
  const auto& partials =
      ledger.frames[static_cast<size_t>(MessageType::kSlicePartial)];
  const auto& batches =
      ledger.frames[static_cast<size_t>(MessageType::kEventBatch)];
  const CodecRate slice_rate = ReplaySlicePartials(partials);
  const CodecRate batch_rate = ReplayEventBatches(
      batches.empty() ? SyntheticEventBatches(w) : batches);
  std::printf("codec replay: %zu slice partials, %zu event batches%s "
              "(checksum %llu)\n",
              partials.size(), batches.size(),
              batches.empty() ? " (synthetic batches used)" : "",
              static_cast<unsigned long long>(g_codec_checksum));

  const double u_eps = Median(untraced_eps);
  const double i_eps = Median(inline_eps);
  const MessageCounts& mc = last_traced.messages;
  auto msgs = [&mc](MessageType t) {
    return static_cast<double>(mc.messages[static_cast<size_t>(t)]);
  };
  auto bytes = [&mc](MessageType t) {
    return static_cast<double>(mc.bytes[static_cast<size_t>(t)]);
  };
  const size_t kL = static_cast<size_t>(NodeRole::kLocal);
  const size_t kI = static_cast<size_t>(NodeRole::kIntermediate);
  const size_t kR = static_cast<size_t>(NodeRole::kRoot);
  std::printf("traced passes %zu, span samples: ingest %zu advance %zu "
              "add %zu remove %zu send %zu/%zu\n",
              traced_eps.size(), ingest_us.size(), advance_us.size(),
              add_us.size(), remove_us.size(), send_inter_us.size(),
              send_root_us.size());
  return {
      {"cluster.ingest_call_us.p50", Quantile(ingest_us, 0.5), "us"},
      {"cluster.ingest_call_us.p99", Quantile(ingest_us, 0.99), "us"},
      {"cluster.advance_call_us.p50", Quantile(advance_us, 0.5), "us"},
      {"cluster.advance_call_us.p99", Quantile(advance_us, 0.99), "us"},
      {"cluster.drain_ms", Median(drain_ms), "ms"},
      {"cluster.configure_ms", Median(configure_ms), "ms"},
      {"cluster.add_query_us.p50", Quantile(add_us, 0.5), "us"},
      {"cluster.add_query_us.p99", Quantile(add_us, 0.99), "us"},
      {"cluster.remove_query_us.p50", Quantile(remove_us, 0.5), "us"},
      {"cluster.remove_query_us.p99", Quantile(remove_us, 0.99), "us"},
      {"node.busy_ms.local", Median(busy_ms[kL]), "ms"},
      {"node.busy_ms.intermediate", Median(busy_ms[kI]), "ms"},
      {"node.busy_ms.root", Median(busy_ms[kR]), "ms"},
      {"node.busy_share.local", Median(busy_share[kL]), "ratio"},
      {"node.busy_share.intermediate", Median(busy_share[kI]), "ratio"},
      {"node.busy_share.root", Median(busy_share[kR]), "ratio"},
      {"node.queue_hwm.intermediate", Median(queue_hwm[kI]), "messages"},
      {"node.queue_hwm.root", Median(queue_hwm[kR]), "messages"},
      {"transport.send_us.p50.local-intermediate",
       Quantile(send_inter_us, 0.5), "us"},
      {"transport.send_us.p99.local-intermediate",
       Quantile(send_inter_us, 0.99), "us"},
      {"transport.send_us.p50.intermediate-root", Quantile(send_root_us, 0.5),
       "us"},
      {"transport.send_us.p99.intermediate-root", Quantile(send_root_us, 0.99),
       "us"},
      {"transport.blocked_ms", Median(blocked_ms), "ms"},
      {"transport.messages.slice_partial", msgs(MessageType::kSlicePartial),
       "count"},
      {"transport.messages.event_batch", msgs(MessageType::kEventBatch),
       "count"},
      {"transport.messages.watermark", msgs(MessageType::kWatermark), "count"},
      {"transport.bytes.slice_partial", bytes(MessageType::kSlicePartial), "B"},
      {"transport.bytes.event_batch", bytes(MessageType::kEventBatch), "B"},
      {"transport.bytes.watermark", bytes(MessageType::kWatermark), "B"},
      {"message.encode_ns_per_byte.slice_partial",
       slice_rate.encode_ns_per_byte, "ns/B"},
      {"message.decode_ns_per_byte.slice_partial",
       slice_rate.decode_ns_per_byte, "ns/B"},
      {"message.encode_ns_per_byte.event_batch", batch_rate.encode_ns_per_byte,
       "ns/B"},
      {"message.decode_ns_per_byte.event_batch", batch_rate.decode_ns_per_byte,
       "ns/B"},
      {"core.operator_evals_per_event",
       static_cast<double>(last_traced.operator_evals) / events, "evals/event"},
      {"core.sharing_ratio",
       last_traced.operator_evals > 0
           ? last_traced.shared_work /
                 static_cast<double>(last_traced.operator_evals)
           : 0.0,
       "ratio"},
      {"core.windows_emitted", static_cast<double>(last_traced.windows_emitted),
       "count"},
      {"opt.rewrites", static_cast<double>(last_traced.rewrites), "count"},
      {"opt.dag_depth", static_cast<double>(last_traced.dag_depth), "count"},
      {"ledger.local_share", local_ns / wall_ns, "ratio"},
      {"ledger.intermediate_share", inter_ns / wall_ns, "ratio"},
      {"ledger.root_share", root_ns / wall_ns, "ratio"},
      {"ledger.sink_share", sink_ns / wall_ns, "ratio"},
      {"ledger.unattributed_share", unattributed_ns / wall_ns, "ratio"},
      {"inline.throughput_eps", i_eps, "events/s"},
      {"scaling.threaded_over_inline", u_eps / i_eps, "ratio"},
      {"trace.overhead_pct", (u_eps - Median(traced_eps)) / u_eps * 100.0, "%"},
      {"gen.late_us.p99", Quantile(late_us, 0.99), "us"},
      {"gen.late_us.max",
       Quantile(late_us, 1.0),
       "us"},
  };
}

int Usage() {
  std::fprintf(stderr,
               "usage: cluster_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--span-dir DIR]\nworkloads:");
  for (const auto& n : WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (args.count("workload") == 0 || args.count("seed") == 0) return Usage();
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds =
      args.count("seconds") ? std::atof(args["seconds"].c_str()) : 10.0;
  const bool traced = args.count("trace") && args["trace"] == "1";
  const std::string span_dir = args.count("span-dir") ? args["span-dir"] : "";

  const int64_t t_gen = NowNs();
  Workload w;
  if (!MakeWorkload(args["workload"], seed, &w)) return Usage();
  const std::vector<Fingerprint> want = ReferenceFingerprints(w);
  if (want.size() != w.queries.size()) {
    std::fprintf(stderr, "reference engine rejected the query set\n");
    return 1;
  }
  uint64_t want_windows = 0;
  for (const Fingerprint& f : want) want_windows += f.windows;
  std::printf("workload %s seed %llu: %d locals x %d intermediates, %s, "
              "%zu queries, %zu churn ops, %llu events, %zu rounds, "
              "%llu reference windows (inputs + reference %.2f s)\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), w.locals,
              w.intermediates, w.threaded ? "threaded" : "inline",
              w.queries.size(), w.churn.size(),
              static_cast<unsigned long long>(w.total_events), w.rounds,
              static_cast<unsigned long long>(want_windows),
              static_cast<double>(NowNs() - t_gen) * 1e-9);
  std::printf("hw_threads %u, build %s\n", std::thread::hardware_concurrency(),
              DESIS_BUILD_TYPE);

  Tally tally;
  const std::vector<Metric> metrics =
      traced ? RunTraced(w, want, seconds, span_dir, &tally)
             : RunTimed(w, want, seconds, &tally);
  PrintResult(tally, metrics);
  return tally.ok ? 0 : 1;
}

}  // namespace
}  // namespace desis::clusterbench

int main(int argc, char** argv) {
  return desis::clusterbench::Main(argc, argv);
}
