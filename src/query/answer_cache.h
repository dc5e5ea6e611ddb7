#ifndef PXML_QUERY_ANSWER_CACHE_H_
#define PXML_QUERY_ANSWER_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "util/status.h"

namespace pxml {

class ProbabilisticInstance;

/// A 128-bit mixing fingerprint (two independently seeded 64-bit lanes).
/// Keys answer-cache entries by the canonical query form: the two lanes
/// make an accidental collision across the cache's lifetime
/// astronomically unlikely, so lookups need no stored key verification
/// beyond the fingerprint itself.
struct Fingerprint {
  std::uint64_t lo = 0x9e3779b97f4a7c15ull;
  std::uint64_t hi = 0xc2b2ae3d27d4eb4full;

  /// Absorbs one 64-bit word into both lanes (order-sensitive).
  void Mix(std::uint64_t v);
  /// Absorbs the bit pattern of a double (distinguishes 0.0 from -0.0,
  /// which is fine: equal bits are all a cache key needs).
  void MixDouble(double v);

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const {
    return static_cast<std::size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ull));
  }
};

/// Byte accounting against a fixed budget — the eviction trigger of each
/// AnswerCache shard. Plain counters: the owning shard guards its budget
/// with its own mutex, so the accounting itself needs no atomics. Callers
/// Charge() what they store and Release() exactly what they charged;
/// over() is the "evict until not" predicate, which admits a resident set
/// of at most `budget` bytes (a single entry larger than the whole budget
/// evicts itself — the cache never holds more than its budget).
class CacheBudget {
 public:
  explicit CacheBudget(std::size_t budget_bytes) : budget_(budget_bytes) {}

  void Charge(std::size_t bytes) { used_ += bytes; }
  void Release(std::size_t bytes) { used_ -= bytes < used_ ? bytes : used_; }

  bool over() const { return used_ > budget_; }
  std::size_t used() const { return used_; }
  std::size_t budget() const { return budget_; }

 private:
  std::size_t budget_ = 0;
  std::size_t used_ = 0;
};

/// A complete cached query answer: everything BatchAnswer carries except
/// the execution profile (which describes *how* a particular run
/// executed, not *what* the answer is — a hit synthesizes a zero-work
/// profile instead). The projection is held behind a shared_ptr so a hit
/// hands out an alias and the engine materializes a COW copy
/// (ProbabilisticInstance's copy constructor shares ℘ entries), never
/// exposing the cached object to mutation.
struct CachedAnswer {
  Status status;
  double probability = 0.0;
  std::shared_ptr<const ProbabilisticInstance> projection;
};

/// The epoch-keyed answer cache (DESIGN.md §12): maps (epoch id,
/// canonical query fingerprint) to the full answer the engine computed
/// for that question against that committed epoch.
///
/// The epoch id is what makes this cache sound with *zero* invalidation
/// logic: an epoch is an immutable snapshot (DESIGN.md §7), so an answer
/// computed against it can never change — a hit is bit-identical to
/// re-evaluating, by construction. The flip side is reclamation: entries
/// for an epoch become dead weight the moment its last reader unpins, so
/// the engine's ~Epoch calls DropEpoch(id) and the cache eagerly erases
/// every entry under that id (per-shard submap erase — no scan of other
/// epochs' entries, no tombstones).
///
/// Sharded for concurrency: the fingerprint picks one of kShards
/// independently locked shards, each owning 1/kShards of the byte budget
/// with its own LRU list, so the global resident total never exceeds the
/// budget and a hot lookup path only ever takes one shard mutex. Entry
/// sizes are *estimates* (a flat overhead + the status message + a
/// caller-supplied payload hint for projections); the budget bounds the
/// estimate, which is the documented contract — byte-exact malloc
/// accounting is not attempted. An entry larger than its shard's whole
/// budget evicts itself immediately (the cache never retains more than
/// its budget).
///
/// Only deterministic outcomes are cacheable (see Cacheable()): kOk and
/// the query-shape errors that depend solely on (epoch, query) — e.g.
/// kBadPath, kUnknownObject — are; serving-path trips (kCancelled,
/// kDeadlineExceeded, kResourceExhausted, kRejected, kStale) depend on
/// the request's deadline/budget/token and must never be replayed to a
/// different request.
///
/// Mirrored on the registry: pxml.cache.answer_{hits,misses,evictions,
/// epoch_drops} counters and the pxml.cache.answer_bytes resident gauge
/// (cumulative across instances; each instance's destructor releases its
/// share of the gauge).
class AnswerCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;    // byte-budget LRU evictions
    std::uint64_t epoch_drops = 0;  // DropEpoch calls that erased entries
  };

  static constexpr std::size_t kShards = 8;

  /// Flat per-entry overhead charged on top of the payload estimate: the
  /// two-level map nodes, the LRU node's key copy, and the Entry itself.
  static constexpr std::size_t kEntryOverheadBytes = 160;

  /// Default global budget (64 MiB across all shards).
  static constexpr std::size_t kDefaultBudgetBytes = std::size_t{64} << 20;

  /// The budget is split evenly across shards; a per-shard share below
  /// one overhead unit clamps up to it so every shard admits at least
  /// one small entry.
  explicit AnswerCache(std::size_t budget_bytes = kDefaultBudgetBytes);
  ~AnswerCache();

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// Whether `status` is a deterministic function of (epoch, query) and
  /// may therefore be cached — true for kOk and the query-shape errors,
  /// false for every serving-path trip code.
  static bool Cacheable(const Status& status);

  /// Serves the cached answer for (epoch, fp), refreshing LRU recency.
  std::optional<CachedAnswer> Lookup(std::uint64_t epoch,
                                     const Fingerprint& fp);

  /// Records the answer for (epoch, fp). `payload_bytes` is the caller's
  /// estimate of the answer's variable-size payload (projection
  /// instances; 0 for plain probabilities) — the status message is
  /// accounted here. Overwrites a racing duplicate in place. Callers
  /// must only insert Cacheable() statuses, and only while the epoch is
  /// pinned (so the insert cannot race its own DropEpoch).
  void Insert(std::uint64_t epoch, const Fingerprint& fp,
              const CachedAnswer& answer, std::size_t payload_bytes);

  /// Erases every entry cached under `epoch` (called by the engine when
  /// the epoch's refcount retires). O(entries under that epoch).
  void DropEpoch(std::uint64_t epoch);

  void Clear();

  std::size_t size() const;
  std::size_t bytes_used() const;
  std::size_t budget_bytes() const { return kShards * per_shard_budget_; }

  Stats stats() const;

 private:
  struct Key {
    std::uint64_t epoch = 0;
    Fingerprint fp;
  };
  struct Entry {
    CachedAnswer answer;
    std::size_t bytes = 0;
    std::list<Key>::iterator lru_it;
  };
  using FpMap = std::unordered_map<Fingerprint, Entry, FingerprintHash>;
  struct Shard {
    explicit Shard(std::size_t budget) : budget(budget) {}
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, FpMap> epochs;
    std::list<Key> lru;  // front = most recent
    CacheBudget budget;
    std::size_t entries = 0;
  };

  Shard& ShardFor(const Fingerprint& fp) {
    return *shards_[FingerprintHash{}(fp) % kShards];
  }
  /// Erases the LRU-oldest entry of `shard` (caller holds shard.mu).
  void EvictOneLocked(Shard& shard);

  std::size_t per_shard_budget_;
  std::array<std::unique_ptr<Shard>, kShards> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> epoch_drops_{0};
};

}  // namespace pxml

#endif  // PXML_QUERY_ANSWER_CACHE_H_
