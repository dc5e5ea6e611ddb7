#include "obs/flight_recorder.h"

#include <bit>
#include <cinttypes>
#include <cstdio>

#include "util/status.h"

namespace pxml {
namespace obs {

namespace {

/// Packs the small fields into slot word [6]: bits 0-7 status, 8-15 kind,
/// 16-23 priority (two's-complement byte), 24-39 flags.
std::uint64_t Pack(const FlightRecord& rec) {
  return static_cast<std::uint64_t>(rec.status) |
         (static_cast<std::uint64_t>(rec.kind) << 8) |
         (static_cast<std::uint64_t>(static_cast<std::uint8_t>(rec.priority))
          << 16) |
         (static_cast<std::uint64_t>(rec.flags) << 24);
}

void Unpack(std::uint64_t packed, FlightRecord* rec) {
  rec->status = static_cast<std::uint8_t>(packed & 0xff);
  rec->kind = static_cast<std::uint8_t>((packed >> 8) & 0xff);
  rec->priority =
      static_cast<std::int8_t>(static_cast<std::uint8_t>((packed >> 16) & 0xff));
  rec->flags = static_cast<std::uint16_t>((packed >> 24) & 0xffff);
}

void AppendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void AppendRecordJson(std::string& out, const FlightRecord& rec) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"seq\":%" PRIu64 ",\"end_ns\":%" PRIu64 ",\"epoch\":%" PRIu64
                ",\"fingerprint\":%" PRIu64 ",\"wall_ns\":%" PRIu64
                ",\"row_ops\":%" PRIu64 ",",
                rec.seq, rec.end_ns, rec.epoch, rec.fingerprint, rec.wall_ns,
                rec.row_ops);
  out += buf;
  out += "\"status\":\"";
  out += StatusCodeName(static_cast<StatusCode>(rec.status));
  out += "\",\"kind\":\"";
  out += QueryKindName(rec.kind);
  std::snprintf(buf, sizeof(buf),
                "\",\"priority\":%d,\"cached\":%s,\"frozen\":%s,"
                "\"generic\":%s,\"admitted\":%s,\"shed\":%s}",
                static_cast<int>(rec.priority),
                (rec.flags & kRecordCached) != 0 ? "true" : "false",
                (rec.flags & kRecordFrozen) != 0 ? "true" : "false",
                (rec.flags & kRecordGeneric) != 0 ? "true" : "false",
                (rec.flags & kRecordAdmitted) != 0 ? "true" : "false",
                (rec.flags & kRecordShed) != 0 ? "true" : "false");
  out += buf;
}

}  // namespace

const char* QueryKindName(std::uint8_t kind) {
  // Mirrors BatchQuery::Kind's declaration order (query/engine.h); the
  // recorder_test pins the mapping so the two cannot drift silently.
  switch (kind) {
    case 0:
      return "point";
    case 1:
      return "exists";
    case 2:
      return "value";
    case 3:
      return "condition";
    case 4:
      return "ancestor_project";
    default:
      return "unknown";
  }
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : start_(std::chrono::steady_clock::now()) {
  if (capacity == 0) return;
  capacity_ = std::bit_ceil(capacity);
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    for (std::atomic<std::uint64_t>& w : slots_[i].word) {
      w.store(0, std::memory_order_relaxed);
    }
  }
}

std::uint64_t FlightRecorder::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void FlightRecorder::Record(FlightRecord rec) {
  if (capacity_ == 0) return;
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & mask_];
  // Ticket odd = "write in progress for seq". The release fence orders it
  // before the payload stores for any reader that observes those stores
  // through its own acquire fence (see the class comment's protocol).
  slot.word[0].store(seq * 2 + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.word[1].store(NowNs(), std::memory_order_relaxed);
  slot.word[2].store(rec.epoch, std::memory_order_relaxed);
  slot.word[3].store(rec.fingerprint, std::memory_order_relaxed);
  slot.word[4].store(rec.wall_ns, std::memory_order_relaxed);
  slot.word[5].store(rec.row_ops, std::memory_order_relaxed);
  slot.word[6].store(Pack(rec), std::memory_order_relaxed);
  slot.word[0].store(seq * 2 + 2, std::memory_order_release);
}

std::vector<FlightRecord> FlightRecorder::Dump() const {
  std::vector<FlightRecord> out;
  if (capacity_ == 0) return out;
  const std::uint64_t next = next_.load(std::memory_order_acquire);
  const std::uint64_t lo = next > capacity_ ? next - capacity_ : 0;
  out.reserve(static_cast<std::size_t>(next - lo));
  for (std::uint64_t seq = lo; seq < next; ++seq) {
    const Slot& slot = slots_[seq & mask_];
    const std::uint64_t t0 = slot.word[0].load(std::memory_order_acquire);
    if (t0 != seq * 2 + 2) continue;  // unwritten, mid-write, or overwritten
    FlightRecord rec;
    rec.seq = seq;
    rec.end_ns = slot.word[1].load(std::memory_order_relaxed);
    rec.epoch = slot.word[2].load(std::memory_order_relaxed);
    rec.fingerprint = slot.word[3].load(std::memory_order_relaxed);
    rec.wall_ns = slot.word[4].load(std::memory_order_relaxed);
    rec.row_ops = slot.word[5].load(std::memory_order_relaxed);
    Unpack(slot.word[6].load(std::memory_order_relaxed), &rec);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.word[0].load(std::memory_order_relaxed) != t0) continue;
    out.push_back(rec);
  }
  return out;
}

std::string FlightRecorder::ToJson() const {
  const std::vector<FlightRecord> records = Dump();
  std::string out;
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"capacity\":%zu,\"total_recorded\":%" PRIu64
                ",\"records\":[",
                capacity_, total_recorded());
  out += buf;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i != 0) out += ',';
    AppendRecordJson(out, records[i]);
  }
  out += "]}";
  return out;
}

SlowQueryLog::SlowQueryLog(std::size_t max_entries)
    : max_entries_(max_entries) {}

std::uint64_t SlowQueryLog::retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retained_;
}

void SlowQueryLog::Retain(SlowQueryEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entry.seq = retained_++;
  if (max_entries_ == 0) return;
  entries_.push_back(std::move(entry));
  while (entries_.size() > max_entries_) entries_.pop_front();
}

std::vector<SlowQueryEntry> SlowQueryLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<SlowQueryEntry>(entries_.begin(), entries_.end());
}

std::string SlowQueryLog::ToJson() const {
  const std::vector<SlowQueryEntry> entries = Entries();
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"max_entries\":%zu,\"retained\":%" PRIu64 ",\"entries\":[",
                max_entries_, retained());
  out += buf;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SlowQueryEntry& e = entries[i];
    if (i != 0) out += ',';
    std::snprintf(buf, sizeof(buf),
                  "{\"seq\":%" PRIu64 ",\"epoch\":%" PRIu64
                  ",\"fingerprint\":%" PRIu64 ",\"wall_ns\":%" PRIu64
                  ",\"row_ops\":%" PRIu64 ",",
                  e.seq, e.epoch, e.fingerprint, e.wall_ns, e.row_ops);
    out += buf;
    out += "\"kind\":\"";
    out += QueryKindName(e.kind);
    out += "\",\"status\":\"";
    out += StatusCodeName(static_cast<StatusCode>(e.status));
    out += "\",\"reason\":\"";
    AppendEscaped(out, e.reason);
    out += "\",\"dispatch\":\"";
    AppendEscaped(out, e.dispatch);
    out += "\",\"trace\":";
    // The span tree is already serialized JSON — embed it verbatim (null
    // when the entry was retained without a sampled session).
    out += e.trace_json.empty() ? "null" : e.trace_json;
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace pxml
