#include "obs/flight_recorder.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <utility>

#include "obs/trace.h"  // SpanRoleName

namespace desis::obs {

const char* KindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kWatermarkAdvance: return "watermark_advance";
    case FlightEventKind::kSliceSeal: return "slice_seal";
    case FlightEventKind::kPartialShip: return "partial_ship";
    case FlightEventKind::kAckFrontier: return "ack_frontier";
    case FlightEventKind::kSpill: return "spill";
    case FlightEventKind::kRestore: return "restore";
    case FlightEventKind::kRetransmit: return "retransmit";
    case FlightEventKind::kReattach: return "reattach";
    case FlightEventKind::kReplay: return "replay";
    case FlightEventKind::kQueryAdd: return "query_add";
    case FlightEventKind::kQueryRemove: return "query_remove";
    case FlightEventKind::kAnomaly: return "anomaly";
  }
  return "unknown";
}

bool FlightKindFromName(const std::string& name, FlightEventKind* out) {
  for (uint8_t k = 0; k <= static_cast<uint8_t>(FlightEventKind::kAnomaly);
       ++k) {
    if (name == KindName(static_cast<FlightEventKind>(k))) {
      *out = static_cast<FlightEventKind>(k);
      return true;
    }
  }
  return false;
}

const char* AnomalyName(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kWatermarkStall: return "watermark_stall";
    case AnomalyKind::kMailboxGrowth: return "mailbox_growth";
    case AnomalyKind::kSpillThrash: return "spill_thrash";
    case AnomalyKind::kSilentNode: return "silent_node";
  }
  return "unknown";
}

bool AnomalyFromName(const std::string& name, AnomalyKind* out) {
  for (uint8_t k = 0; k <= static_cast<uint8_t>(AnomalyKind::kSilentNode);
       ++k) {
    if (name == AnomalyName(static_cast<AnomalyKind>(k))) {
      *out = static_cast<AnomalyKind>(k);
      return true;
    }
  }
  return false;
}

namespace {

std::mutex& FailureHookMutex() {
  static std::mutex mu;
  return mu;
}

std::function<void(const std::string&)>& FailureHookSlot() {
  static std::function<void(const std::string&)> hook;
  return hook;
}

}  // namespace

void SetFlightFailureHook(std::function<void(const std::string&)> hook) {
  std::lock_guard<std::mutex> lock(FailureHookMutex());
  FailureHookSlot() = std::move(hook);
}

void NotifyFlightFailure(const std::string& reason) {
  std::function<void(const std::string&)> hook;
  {
    std::lock_guard<std::mutex> lock(FailureHookMutex());
    hook = FailureHookSlot();
  }
  if (hook) hook(reason);
}

#if DESIS_OBS_ENABLED

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AppendEventJson(std::string& out, const FlightEvent& e) {
  char buf[288];
  std::snprintf(
      buf, sizeof(buf),
      "{\"kind\":\"%s\",\"node\":%" PRIu32 ",\"role\":\"%s\",\"a\":%" PRIu64
      ",\"b\":%" PRIu64 ",\"virtual_ts\":%" PRId64 ",\"real_ns\":%" PRId64
      "}",
      KindName(e.kind), e.node_id, SpanRoleName(e.role), e.a, e.b,
      e.virtual_ts, e.real_ns);
  out += buf;
}

}  // namespace

struct FlightRecorder::Slot {
  RelaxedU64 seq;  // ticket + 1 of the last completed write; 0 = never
  // Per-field relaxed cells so ring-wrap aliasing tears per field instead
  // of racing on plain memory; the seq check in Snapshot() discards torn
  // slots (see SliceTracer::Slot).
  RelaxedU64 kind;
  RelaxedU64 a;
  RelaxedU64 b;
  RelaxedI64 virtual_ts;
  RelaxedI64 real_ns;
};

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

FlightRecorder::~FlightRecorder() { delete[] slots_.load(); }

FlightRecorder::Slot* FlightRecorder::Ring() {
  Slot* slots = slots_.load(std::memory_order_acquire);
  if (slots != nullptr) return slots;
  auto* fresh = new Slot[capacity_];
  if (slots_.compare_exchange_strong(slots, fresh,
                                     std::memory_order_acq_rel)) {
    return fresh;
  }
  delete[] fresh;  // another writer installed the ring first
  return slots;
}

void FlightRecorder::Record(FlightEventKind kind, uint64_t a, uint64_t b,
                            Timestamp virtual_ts) {
  const uint64_t ticket = head_++;
  if (event_counter_ != nullptr) event_counter_->Add();
  if (ticket >= capacity_ && drop_counter_ != nullptr) drop_counter_->Add();
  Slot& slot = Ring()[ticket % capacity_];
  slot.kind.store(static_cast<uint64_t>(kind));
  slot.a.store(a);
  slot.b.store(b);
  slot.virtual_ts.store(virtual_ts);
  slot.real_ns.store(NowNs());
  slot.seq.store(ticket + 1);
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  const uint64_t head = head_.load();
  const uint64_t n = head < capacity_ ? head : capacity_;
  std::vector<FlightEvent> out;
  const Slot* slots = slots_.load(std::memory_order_acquire);
  if (slots == nullptr) return out;
  out.reserve(n);
  for (uint64_t t = head - n; t < head; ++t) {
    const Slot& slot = slots[t % capacity_];
    if (slot.seq.load() != t + 1) continue;  // torn by a ring wrap
    FlightEvent e;
    e.kind = static_cast<FlightEventKind>(slot.kind.load());
    e.node_id = node_id_;
    e.role = role_;
    e.a = slot.a.load();
    e.b = slot.b.load();
    e.virtual_ts = slot.virtual_ts.load();
    e.real_ns = slot.real_ns.load();
    out.push_back(e);
  }
  return out;
}

std::string FlightRecorder::ToJson() const {
  std::string out = "[";
  bool first = true;
  for (const FlightEvent& e : Snapshot()) {
    if (!first) out += ',';
    first = false;
    AppendEventJson(out, e);
  }
  out += "]";
  return out;
}

std::string FlightRecorder::DumpJson(const std::string& reason) const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"node\":%" PRIu32
                ",\"role\":\"%s\",\"reason\":\"%s\",\"recorder\":{"
                "\"capacity\":%zu,\"recorded\":%" PRIu64
                ",\"dropped\":%" PRIu64 "},\"events\":",
                node_id_, SpanRoleName(role_), JsonEscape(reason).c_str(),
                capacity_, recorded(), dropped());
  std::string out = buf;
  out += ToJson();
  out += "}";
  return out;
}

#else  // !DESIS_OBS_ENABLED ------------------------------------------------

std::string FlightRecorder::DumpJson(const std::string& reason) const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"node\":%" PRIu32
                ",\"role\":\"%s\",\"reason\":\"%s\",\"recorder\":{"
                "\"capacity\":0,\"recorded\":0,\"dropped\":0},\"events\":[]}",
                node_id_, SpanRoleName(role_), JsonEscape(reason).c_str());
  return buf;
}

#endif  // DESIS_OBS_ENABLED

}  // namespace desis::obs
