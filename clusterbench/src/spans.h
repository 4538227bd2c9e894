#ifndef CLUSTERBENCH_SPANS_H_
#define CLUSTERBENCH_SPANS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace desis::clusterbench {

/// What a span times. One span per call or per message, never per event.
enum class SpanKind : uint8_t {
  kIngest = 0,     // Cluster::IngestAt
  kAdvance,        // Cluster::AdvanceAt
  kAddQuery,       // Cluster::AddQuery
  kRemoveQuery,    // Cluster::RemoveQuery
  kSendToInter,    // Transport::Send to an intermediate
  kSendToRoot,     // Transport::Send to the root
  kSink,           // result sink call
};
inline constexpr int kNumSpanKinds = 7;
const char* SpanKindName(SpanKind kind);

inline constexpr uint32_t kNoParent = UINT32_MAX;

/// One timed call. `self_ns` is the duration minus the part covered by
/// child spans on the same thread (the span's own work).
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t self_ns = 0;
  uint32_t parent = kNoParent;  // index into the same thread's spans
  uint16_t thread = 0;
  SpanKind kind = SpanKind::kIngest;
};

int64_t NowNs();

/// In-memory span store: one append-only buffer per thread, so recording
/// takes no lock after a thread's first span. Install one with Activate()
/// for a traced pass; with none active, SpanScope records nothing.
class SpanRecorder {
 public:
  struct ThreadSpans {
    uint16_t thread = 0;
    std::vector<Span> spans;
    std::vector<uint32_t> open;  // stack of unfinished span indices
  };

  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;
  ~SpanRecorder();

  /// Makes this recorder the process-wide target (null: tracing off). Only
  /// switch while no traced calls are in flight.
  static void Activate(SpanRecorder* recorder);
  static SpanRecorder* Active();

  ThreadSpans* Local();

  /// Every thread's buffer; read only once the traced threads are quiescent.
  const std::vector<std::unique_ptr<ThreadSpans>>& threads() const {
    return threads_;
  }

  /// Writes every span as TSV (thread, kind, start, end, self, parent).
  bool WriteTsv(const std::string& path) const;

 private:
  const uint64_t epoch_;
  std::mutex mu_;  // guards threads_ growth
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

/// Times one call into the system under test on the calling thread.
class SpanScope {
 public:
  explicit SpanScope(SpanKind kind) {
    SpanRecorder* rec = SpanRecorder::Active();
    if (rec == nullptr) return;
    buf_ = rec->Local();
    index_ = static_cast<uint32_t>(buf_->spans.size());
    Span s;
    s.start_ns = NowNs();
    s.parent = buf_->open.empty() ? kNoParent : buf_->open.back();
    s.thread = buf_->thread;
    s.kind = kind;
    buf_->spans.push_back(s);
    buf_->open.push_back(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (buf_ == nullptr) return;
    Span& s = buf_->spans[index_];
    s.end_ns = NowNs();
    const int64_t duration = s.end_ns - s.start_ns;
    // self_ns accumulated the children's durations while the span was open.
    s.self_ns = duration - s.self_ns;
    buf_->open.pop_back();
    if (s.parent != kNoParent) buf_->spans[s.parent].self_ns += duration;
  }

 private:
  SpanRecorder::ThreadSpans* buf_ = nullptr;
  uint32_t index_ = 0;
};

}  // namespace desis::clusterbench

#endif  // CLUSTERBENCH_SPANS_H_
