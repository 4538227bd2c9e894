#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace desis::clusterbench {
namespace {

std::atomic<SpanRecorder*> g_active{nullptr};
std::atomic<uint64_t> g_next_epoch{1};

struct ThreadSlot {
  uint64_t epoch = 0;
  SpanRecorder::ThreadSpans* spans = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kIngest: return "cluster.ingest";
    case SpanKind::kAdvance: return "cluster.advance";
    case SpanKind::kAddQuery: return "cluster.add_query";
    case SpanKind::kRemoveQuery: return "cluster.remove_query";
    case SpanKind::kSendToInter: return "transport.send.local-intermediate";
    case SpanKind::kSendToRoot: return "transport.send.intermediate-root";
    case SpanKind::kSink: return "sink";
  }
  return "unknown";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanRecorder() : epoch_(g_next_epoch.fetch_add(1)) {}

SpanRecorder::~SpanRecorder() {
  SpanRecorder* self = this;
  g_active.compare_exchange_strong(self, nullptr);
}

void SpanRecorder::Activate(SpanRecorder* recorder) {
  g_active.store(recorder, std::memory_order_release);
}

SpanRecorder* SpanRecorder::Active() {
  return g_active.load(std::memory_order_acquire);
}

SpanRecorder::ThreadSpans* SpanRecorder::Local() {
  if (t_slot.epoch == epoch_) return t_slot.spans;
  std::lock_guard<std::mutex> lock(mu_);
  auto buf = std::make_unique<ThreadSpans>();
  buf->thread = static_cast<uint16_t>(threads_.size());
  buf->spans.reserve(1 << 16);
  t_slot = {epoch_, buf.get()};
  threads_.push_back(std::move(buf));
  return t_slot.spans;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "thread\tkind\tstart_ns\tend_ns\tself_ns\tparent\n");
  for (const auto& t : threads_) {
    for (const Span& s : t->spans) {
      std::fprintf(out, "%u\t%s\t%lld\t%lld\t%lld\t%lld\n",
                   static_cast<unsigned>(s.thread), SpanKindName(s.kind),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.self_ns),
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace desis::clusterbench
