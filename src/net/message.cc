#include "net/message.h"

namespace desis {

namespace {
// Frames carrying provenance set the high bit of the type byte; legacy
// frames (and all frames when recovery is off) stay byte-identical.
constexpr uint8_t kProvenanceFlag = 0x80;
}  // namespace

std::vector<uint8_t> EncodeFrame(const Message& message) {
  ByteWriter out;
  uint8_t type = static_cast<uint8_t>(message.type);
  if (!message.origins.empty()) type |= kProvenanceFlag;
  out.WriteU8(type);
  out.WriteU32(message.group_id);
  out.WritePodVector(message.payload);  // 4B length prefix + payload
  if (!message.origins.empty()) {
    out.WriteU16(static_cast<uint16_t>(message.origins.size()));
    for (const ProvenanceEntry& p : message.origins) {
      out.WriteU32(p.origin);
      out.WriteU64(p.unit);
    }
  }
  return out.TakeBytes();
}

Message DecodeFrame(const std::vector<uint8_t>& frame) {
  ByteReader in(frame);
  Message message;
  const uint8_t type = in.ReadU8();
  message.type = static_cast<MessageType>(type & ~kProvenanceFlag);
  message.group_id = in.ReadU32();
  message.payload = in.ReadPodVector<uint8_t>();
  if (type & kProvenanceFlag) {
    const uint16_t n = in.ReadU16();
    message.origins.reserve(n);
    for (uint16_t i = 0; i < n; ++i) {
      ProvenanceEntry p;
      p.origin = in.ReadU32();
      p.unit = in.ReadU64();
      message.origins.push_back(p);
    }
  }
  return message;
}

SlicePartialMsg SlicePartialMsg::FromRecord(const SliceRecord& rec) {
  SlicePartialMsg msg;
  msg.slice_id = rec.id;
  msg.start = rec.start;
  msg.end = rec.end;
  msg.last_event_ts = rec.last_event_ts;
  msg.lanes = rec.lanes;
  msg.lane_events = rec.lane_events;
  msg.lane_last_ts = rec.lane_last_ts;
  msg.eps = rec.eps;
  return msg;
}

void SlicePartialMsg::SerializeTo(ByteWriter& out) const {
  out.WriteU64(slice_id);
  out.WriteI64(start);
  out.WriteI64(end);
  out.WriteI64(last_event_ts);
  out.WriteU32(static_cast<uint32_t>(lanes.size()));
  for (size_t i = 0; i < lanes.size(); ++i) {
    out.WriteU64(lane_events[i]);
    out.WriteI64(lane_last_ts[i]);
    lanes[i].SerializeTo(out);
  }
  out.WriteU32(static_cast<uint32_t>(eps.size()));
  for (const EpInfo& ep : eps) {
    out.WriteU32(ep.spec_idx);
    out.WriteI64(ep.window_start);
    out.WriteI64(ep.window_end);
  }
}

SlicePartialMsg SlicePartialMsg::DeserializeFrom(ByteReader& in) {
  SlicePartialMsg msg;
  msg.slice_id = in.ReadU64();
  msg.start = in.ReadI64();
  msg.end = in.ReadI64();
  msg.last_event_ts = in.ReadI64();
  const uint32_t lanes = in.ReadU32();
  msg.lanes.reserve(lanes);
  msg.lane_events.reserve(lanes);
  for (uint32_t i = 0; i < lanes; ++i) {
    msg.lane_events.push_back(in.ReadU64());
    msg.lane_last_ts.push_back(in.ReadI64());
    msg.lanes.push_back(PartialAggregate::DeserializeFrom(in));
  }
  const uint32_t eps = in.ReadU32();
  for (uint32_t i = 0; i < eps; ++i) {
    EpInfo ep;
    ep.spec_idx = in.ReadU32();
    ep.window_start = in.ReadI64();
    ep.window_end = in.ReadI64();
    msg.eps.push_back(ep);
  }
  return msg;
}

std::vector<uint8_t> EncodeEventBatch(const std::vector<Event>& events) {
  ByteWriter out;
  out.WriteU32(static_cast<uint32_t>(events.size()));
  for (const Event& e : events) {
    out.WriteI64(e.ts);
    out.WriteU32(e.key);
    out.WriteDouble(e.value);
    out.WriteU32(e.marker);
  }
  return out.TakeBytes();
}

std::vector<Event> DecodeEventBatch(const std::vector<uint8_t>& payload) {
  ByteReader in(payload);
  const uint32_t n = in.ReadU32();
  std::vector<Event> events;
  events.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Event e;
    e.ts = in.ReadI64();
    e.key = in.ReadU32();
    e.value = in.ReadDouble();
    e.marker = in.ReadU32();
    events.push_back(e);
  }
  return events;
}

std::vector<uint8_t> EncodeWatermark(Timestamp watermark) {
  ByteWriter out;
  out.WriteI64(watermark);
  return out.TakeBytes();
}

Timestamp DecodeWatermark(const std::vector<uint8_t>& payload) {
  ByteReader in(payload);
  return in.ReadI64();
}

}  // namespace desis
