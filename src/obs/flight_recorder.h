#ifndef PXML_OBS_FLIGHT_RECORDER_H_
#define PXML_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pxml {
namespace obs {

/// Flag bits of FlightRecord::flags. They summarize *how* the query was
/// served: which cache/kernel machinery touched it and what the
/// admission decision was. Bits 1 and 6 are retired: the other bits
/// keep their values so records and dumps decode the same way.
inline constexpr std::uint16_t kRecordCached = 1u << 0;    ///< answer-cache hit
inline constexpr std::uint16_t kRecordFrozen = 1u << 2;    ///< >=1 frozen-kernel pass
inline constexpr std::uint16_t kRecordGeneric = 1u << 3;   ///< >=1 generic pass
inline constexpr std::uint16_t kRecordAdmitted = 1u << 4;  ///< batch passed admission
inline constexpr std::uint16_t kRecordShed = 1u << 5;      ///< answered on the shed /
                                                           ///< fail-fast path (never
                                                           ///< dispatched)

/// One compact per-query record: everything an operator needs to answer
/// "what ran, how long, and why was it slow/shed" without a trace. Six
/// 64-bit payload words — small enough that writing one is ~O(100ns).
///
/// `kind` mirrors BatchQuery::Kind's numeric values (the obs layer does
/// not depend on the query layer; QueryKindName keeps the two in sync and
/// names unknown codes "unknown"). `status` is the util/status.h
/// StatusCode numeric value.
struct FlightRecord {
  std::uint64_t seq = 0;          ///< global record number (stamped by Record)
  std::uint64_t end_ns = 0;       ///< completion time, ns since recorder start
  std::uint64_t epoch = 0;        ///< committed epoch the query ran against
  std::uint64_t fingerprint = 0;  ///< folded canonical query fingerprint
  std::uint64_t wall_ns = 0;      ///< in-engine latency of the query
  std::uint64_t row_ops = 0;      ///< QueryProfile::opf_row_ops
  std::uint8_t status = 0;        ///< StatusCode numeric value
  std::uint8_t kind = 0;          ///< BatchQuery::Kind numeric value
  std::int8_t priority = 0;       ///< QueryRequest::priority (clamped to int8)
  std::uint16_t flags = 0;        ///< kRecord* bits
};

/// Stable lower-case name for a FlightRecord::kind code ("point",
/// "exists", "value", "condition", "ancestor_project", else "unknown").
const char* QueryKindName(std::uint8_t kind);

/// The always-on flight recorder (DESIGN.md §13): a fixed-capacity
/// lock-free ring buffer of FlightRecords, one written per completed
/// query. The ring overwrites oldest-first, so at any moment it holds the
/// last `capacity` completions — the "what happened in the last minute"
/// question answered without enabling tracing.
///
/// Writer protocol (a seqlock per slot, all words atomic so the race is
/// defined behavior under TSAN): a writer claims seq = next_++ (relaxed
/// fetch_add — the only contended operation), stamps the slot's ticket
/// odd (seq*2+1, relaxed), issues a release fence, stores the payload
/// words relaxed, and finally stores the ticket even (seq*2+2, release).
/// A reader accepts a slot only if the ticket reads seq*2+2 both before
/// (acquire) and after (acquire fence, then relaxed) copying the payload:
/// the release-fence/acquire-fence pairing guarantees that a reader which
/// observed any later writer's payload word also observes that writer's
/// odd ticket on the re-read, so torn records are rejected, never
/// returned. Writers never block, never allocate, and never wait on
/// readers; Dump is best-effort by design (records being overwritten
/// mid-dump are skipped).
///
/// Capacity is rounded up to a power of two; 0 disables the recorder
/// entirely (Record is a no-op, Dump returns nothing).
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  std::size_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ != 0; }

  /// Queries recorded over the recorder's lifetime (not just those still
  /// resident in the ring). Relaxed instantaneous read.
  std::uint64_t total_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since the recorder was constructed (steady clock).
  std::uint64_t NowNs() const;

  /// Writes one record (stamping rec.seq and rec.end_ns itself). Safe
  /// from any number of threads concurrently; lock-free; O(1).
  void Record(FlightRecord rec);

  /// A coherent best-effort copy of the resident records, oldest first.
  /// Records overwritten (or mid-write) while the dump scans are skipped.
  std::vector<FlightRecord> Dump() const;

  /// {"capacity":N,"total_recorded":N,"records":[...]} — the schema
  /// checked in at bench/schema/recorder_dump.schema.json. Status and
  /// kind are emitted as their stable names; flags as booleans.
  std::string ToJson() const;

 private:
  // Slot layout: [0]=ticket, [1]=end_ns, [2]=epoch, [3]=fingerprint,
  // [4]=wall_ns, [5]=row_ops, [6]=packed status/kind/priority/flags.
  struct Slot {
    std::atomic<std::uint64_t> word[7];
  };

  std::size_t capacity_ = 0;  // power of two (or 0 = disabled)
  std::size_t mask_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
};

/// One retained slow query: the FlightRecord-level summary plus the full
/// span tree (Chrome trace JSON, ready to load in chrome://tracing) and
/// the dispatch string from its QueryProfile. `reason` says why it was
/// retained: "slow" (wall_ns >= the threshold), "trip" (deadline /
/// budget / cancellation / admission), or "error" (any other non-OK
/// status).
struct SlowQueryEntry {
  std::uint64_t seq = 0;  ///< retention number (monotone per log)
  std::uint64_t epoch = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t row_ops = 0;
  std::uint8_t kind = 0;
  std::uint8_t status = 0;
  std::string reason;
  std::string dispatch;
  std::string trace_json;
};

/// The slow-query log: a small mutex-guarded ring of the most recent
/// retained queries (tail-based sampling keeps this off the hot path —
/// only queries that crossed the threshold, tripped, or errored ever
/// reach Retain, so the mutex is uncontended in healthy steady state).
class SlowQueryLog {
 public:
  static constexpr std::size_t kDefaultMaxEntries = 32;

  explicit SlowQueryLog(std::size_t max_entries = kDefaultMaxEntries);

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  std::size_t max_entries() const { return max_entries_; }

  /// Queries retained over the log's lifetime (>= Entries().size();
  /// oldest entries are dropped past max_entries).
  std::uint64_t retained() const;

  /// Appends one entry (stamping entry.seq), evicting the oldest past
  /// max_entries. A log constructed with max_entries == 0 drops
  /// everything (retained() still counts).
  void Retain(SlowQueryEntry entry);

  /// A copy of the resident entries, oldest first.
  std::vector<SlowQueryEntry> Entries() const;

  /// {"max_entries":N,"retained":N,"entries":[...]} with the trace JSON
  /// embedded verbatim (it is already JSON).
  std::string ToJson() const;

 private:
  std::size_t max_entries_ = 0;
  mutable std::mutex mu_;
  std::deque<SlowQueryEntry> entries_;
  std::uint64_t retained_ = 0;
};

}  // namespace obs
}  // namespace pxml

#endif  // PXML_OBS_FLIGHT_RECORDER_H_
