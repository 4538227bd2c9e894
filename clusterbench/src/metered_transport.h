#ifndef CLUSTERBENCH_METERED_TRANSPORT_H_
#define CLUSTERBENCH_METERED_TRANSPORT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "spans.h"
#include "transport/transport.h"

namespace desis::clusterbench {

inline constexpr int kNumMessageTypes = 5;  // MessageType::kEventBatch..kAck

/// Messages and wire bytes per MessageType.
struct MessageCounts {
  std::array<uint64_t, kNumMessageTypes> messages{};
  std::array<uint64_t, kNumMessageTypes> bytes{};

  MessageCounts& operator+=(const MessageCounts& o) {
    for (int t = 0; t < kNumMessageTypes; ++t) {
      messages[t] += o.messages[t];
      bytes[t] += o.bytes[t];
    }
    return *this;
  }
  friend bool operator==(const MessageCounts&, const MessageCounts&) = default;
};

/// Benchmark-owned Transport decorator: forwards every virtual to the real
/// transport, counting messages and bytes per type at the sender, timing
/// each Send as a span when a SpanRecorder is active, and optionally keeping
/// copies of the messages for the codec replay.
class MeteredTransport final : public Transport {
 public:
  /// Node ids are small and dense in the benchmark's topologies.
  static constexpr uint32_t kMaxNodes = 64;

  explicit MeteredTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}
  MeteredTransport(const MeteredTransport&) = delete;
  MeteredTransport& operator=(const MeteredTransport&) = delete;

  /// Keeps copies of sent messages, up to `byte_cap` wire bytes per type.
  void CaptureFrames(size_t byte_cap) { capture_cap_ = byte_cap; }
  /// The captured copies, indexed by MessageType; read after Drain().
  std::array<std::vector<Message>, kNumMessageTypes> TakeCaptured() {
    std::lock_guard<std::mutex> lock(capture_mu_);
    return std::move(captured_);
  }

  /// Totals over every sender; read after Cluster::Drain().
  MessageCounts Totals() const {
    MessageCounts total;
    for (const Sender& s : senders_) total += s.counts;
    return total;
  }

  const char* name() const override { return inner_->name(); }

  void Send(Node* from, Node* to, int child_index,
            const Message& message) override {
    // Each node's sends are serialized by the cluster (per-local lock,
    // single delivery worker per intermediate), so its slot has one writer
    // at a time.
    MessageCounts& c = senders_[from->id() % kMaxNodes].counts;
    const size_t type = static_cast<size_t>(message.type);
    ++c.messages[type];
    c.bytes[type] += message.WireBytes();
    if (capture_cap_ > 0) Capture(message);
    SpanScope span(LinkSpan(to));
    inner_->Send(from, to, child_index, message);
  }

  void AddNode(Node* node) override { inner_->AddNode(node); }
  void Execute(Node* target, std::function<void()> fn) override {
    inner_->Execute(target, std::move(fn));
  }
  void ExecuteSync(Node* target, std::function<void()> fn) override {
    inner_->ExecuteSync(target, std::move(fn));
  }
  void Pump() override { inner_->Pump(); }
  void Flush() override { inner_->Flush(); }
  void Shutdown() override { inner_->Shutdown(); }
  void Disconnect(Node* node) override { inner_->Disconnect(node); }
  bool SetLinkDown(Node* a, Node* b, bool down) override {
    return inner_->SetLinkDown(a, b, down);
  }
  void ResetLink(Node* a, Node* b) override { inner_->ResetLink(a, b); }
  int64_t VirtualNowUs() const override { return inner_->VirtualNowUs(); }

 private:
  struct alignas(64) Sender {
    MessageCounts counts;
  };

  // In the benchmark's topologies every link ends at an intermediate
  // (from a local) or at the root (from an intermediate).
  static SpanKind LinkSpan(const Node* to) {
    return to->role() == NodeRole::kRoot ? SpanKind::kSendToRoot
                                         : SpanKind::kSendToInter;
  }

  void Capture(const Message& message) {
    std::lock_guard<std::mutex> lock(capture_mu_);
    const size_t type = static_cast<size_t>(message.type);
    if (captured_bytes_[type] >= capture_cap_) return;
    captured_bytes_[type] += message.WireBytes();
    captured_[type].push_back(message);
  }

  std::unique_ptr<Transport> inner_;
  std::array<Sender, kMaxNodes> senders_{};
  size_t capture_cap_ = 0;
  std::mutex capture_mu_;  // guards captured_ and captured_bytes_
  std::array<std::vector<Message>, kNumMessageTypes> captured_;
  std::array<size_t, kNumMessageTypes> captured_bytes_{};
};

}  // namespace desis::clusterbench

#endif  // CLUSTERBENCH_METERED_TRANSPORT_H_
