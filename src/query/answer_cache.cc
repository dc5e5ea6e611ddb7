#include "query/answer_cache.h"

#include <bit>

#include "obs/metrics.h"

namespace pxml {

namespace {

/// splitmix64 finalizer: a fast, well-distributed 64-bit mixer.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

obs::Counter& AnswerHits() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.cache.answer_hits");
  return c;
}
obs::Counter& AnswerMisses() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.cache.answer_misses");
  return c;
}
obs::Counter& AnswerEvictions() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.cache.answer_evictions");
  return c;
}
obs::Counter& AnswerEpochDrops() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.cache.answer_epoch_drops");
  return c;
}
// Resident-byte gauge across all AnswerCache instances.
obs::Gauge& AnswerBytes() {
  static obs::Gauge& g =
      obs::Registry::Global().GetGauge("pxml.cache.answer_bytes");
  return g;
}
// Resident-entry gauge across all AnswerCache instances (the exporter's
// companion to the byte gauge: bytes are estimates, entries are exact).
obs::Gauge& AnswerEntries() {
  static obs::Gauge& g =
      obs::Registry::Global().GetGauge("pxml.cache.answer_entries");
  return g;
}

}  // namespace

void Fingerprint::Mix(std::uint64_t v) {
  lo = Mix64(lo ^ v);
  hi = Mix64(hi + ((v * 0xff51afd7ed558ccdull) | 1));
}

void Fingerprint::MixDouble(double v) { Mix(std::bit_cast<std::uint64_t>(v)); }

AnswerCache::AnswerCache(std::size_t budget_bytes) {
  per_shard_budget_ = budget_bytes / kShards;
  if (per_shard_budget_ < kEntryOverheadBytes) {
    per_shard_budget_ = kEntryOverheadBytes;
  }
  for (auto& shard : shards_) {
    shard = std::make_unique<Shard>(per_shard_budget_);
  }
}

AnswerCache::~AnswerCache() { Clear(); }

bool AnswerCache::Cacheable(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kUnimplemented:
    case StatusCode::kNotATree:
    case StatusCode::kUnknownObject:
    case StatusCode::kBadPath:
      // Deterministic functions of (epoch, query): the same question
      // against the same snapshot reproduces them exactly, so negative
      // answers are as cacheable as positive ones.
      return true;
    case StatusCode::kParseError:
    case StatusCode::kIoError:
    case StatusCode::kInternal:
    case StatusCode::kStale:
    case StatusCode::kCancelled:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kRejected:
      // Serving-path trips depend on the request (deadline, budget,
      // token, admission load), not the (epoch, query) pair; kInternal
      // and the I/O-ish codes are not guaranteed reproducible.
      return false;
  }
  return false;
}

std::optional<CachedAnswer> AnswerCache::Lookup(std::uint64_t epoch,
                                                const Fingerprint& fp) {
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto eit = shard.epochs.find(epoch);
  if (eit != shard.epochs.end()) {
    auto it = eit->second.find(fp);
    if (it != eit->second.end()) {
      if (it->second.lru_it != shard.lru.begin()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      }
      hits_.fetch_add(1, std::memory_order_relaxed);
      AnswerHits().Increment();
      return it->second.answer;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  AnswerMisses().Increment();
  return std::nullopt;
}

void AnswerCache::Insert(std::uint64_t epoch, const Fingerprint& fp,
                         const CachedAnswer& answer,
                         std::size_t payload_bytes) {
  const std::size_t bytes =
      kEntryOverheadBytes + answer.status.message().size() + payload_bytes;
  Shard& shard = ShardFor(fp);
  std::lock_guard<std::mutex> lock(shard.mu);
  FpMap& fps = shard.epochs[epoch];
  auto it = fps.find(fp);
  if (it != fps.end()) {
    // A racing duplicate of the same (epoch, query) evaluation: both
    // values are bit-identical by the epoch contract, so overwriting is
    // only a byte-accounting refresh.
    AnswerBytes().Add(static_cast<std::int64_t>(bytes) -
                      static_cast<std::int64_t>(it->second.bytes));
    shard.budget.Release(it->second.bytes);
    shard.budget.Charge(bytes);
    it->second.answer = answer;
    it->second.bytes = bytes;
    if (it->second.lru_it != shard.lru.begin()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    }
  } else {
    shard.budget.Charge(bytes);
    shard.lru.push_front(Key{epoch, fp});
    fps.emplace(fp, Entry{answer, bytes, shard.lru.begin()});
    ++shard.entries;
    AnswerBytes().Add(static_cast<std::int64_t>(bytes));
    AnswerEntries().Increment();
    insertions_.fetch_add(1, std::memory_order_relaxed);
  }
  while (shard.budget.over() && shard.entries > 0) {
    EvictOneLocked(shard);
  }
}

void AnswerCache::EvictOneLocked(Shard& shard) {
  const Key key = shard.lru.back();
  auto eit = shard.epochs.find(key.epoch);
  if (eit != shard.epochs.end()) {
    auto it = eit->second.find(key.fp);
    if (it != eit->second.end()) {
      shard.budget.Release(it->second.bytes);
      AnswerBytes().Add(-static_cast<std::int64_t>(it->second.bytes));
      eit->second.erase(it);
      --shard.entries;
      AnswerEntries().Decrement();
    }
    if (eit->second.empty()) shard.epochs.erase(eit);
  }
  shard.lru.pop_back();
  evictions_.fetch_add(1, std::memory_order_relaxed);
  AnswerEvictions().Increment();
}

void AnswerCache::DropEpoch(std::uint64_t epoch) {
  bool dropped = false;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    auto eit = shard.epochs.find(epoch);
    if (eit == shard.epochs.end()) continue;
    for (auto& [fp, entry] : eit->second) {
      shard.budget.Release(entry.bytes);
      AnswerBytes().Add(-static_cast<std::int64_t>(entry.bytes));
      shard.lru.erase(entry.lru_it);
      --shard.entries;
      AnswerEntries().Decrement();
      dropped = true;
    }
    shard.epochs.erase(eit);
  }
  if (dropped) {
    epoch_drops_.fetch_add(1, std::memory_order_relaxed);
    AnswerEpochDrops().Increment();
  }
}

void AnswerCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    AnswerBytes().Add(-static_cast<std::int64_t>(shard.budget.used()));
    AnswerEntries().Add(-static_cast<std::int64_t>(shard.entries));
    shard.budget.Release(shard.budget.used());
    shard.epochs.clear();
    shard.lru.clear();
    shard.entries = 0;
  }
}

std::size_t AnswerCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->entries;
  }
  return total;
}

std::size_t AnswerCache::bytes_used() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->budget.used();
  }
  return total;
}

AnswerCache::Stats AnswerCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.epoch_drops = epoch_drops_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace pxml
