#ifndef PDW_PDW_VERSIONED_LRU_H_
#define PDW_PDW_VERSIONED_LRU_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace pdw {

/// Per-table statistics versions — the invalidation anchor shared by every
/// keyed cache on the control node (plan cache, result cache). The
/// appliance bumps a table's version on LoadRows / RefreshStatistics; a
/// cache entry recording an older version for any table it depends on is
/// stale and must not be served.
///
/// Thread-safe; one instance per appliance, shared by its caches.
class TableVersionTracker {
 public:
  /// Current version of a table (0 until first bump). Case-insensitive.
  uint64_t Version(const std::string& table) const;
  void Bump(const std::string& table);

  /// True when every recorded (table, version) pair still matches.
  bool IsCurrent(
      const std::vector<std::pair<std::string, uint64_t>>& versions) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> versions_;  ///< Lowercase table -> version.
};

/// Introspection row of one cache entry, as the sys.dm_pdw_plan_cache and
/// sys.dm_pdw_result_cache views surface it.
struct CacheEntryInfo {
  std::string normalized_sql;
  std::string options_fingerprint;
  uint64_t hits = 0;  ///< Lookups served from this entry.
  /// The view's count column: DSQL steps of a plan, rows of a result.
  int64_t count = 0;
  double modeled_cost = 0;
  std::vector<std::string> tables;  ///< Invalidation anchors.
};

/// The control node's stats-versioned LRU, shared by the plan cache and
/// the result cache. Entries are keyed by (normalized SQL, compiler-options
/// fingerprint); an entry whose recorded table versions no longer match
/// the tracker is dropped at lookup, so nothing compiled or computed
/// against stale statistics is ever served.
///
/// `V` carries `table_versions` (the invalidation anchors), `modeled_cost`
/// and `int64_t listed_count() const` (the view's count column).
///
/// All methods are thread-safe. Counters mirror into the global metrics
/// registry as `<prefix>.hit` / `.miss` / `.invalidation` / `.eviction`,
/// plus a `<prefix>.size` gauge.
template <typename V>
class VersionedLru {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;         ///< Includes invalidations.
    uint64_t invalidations = 0;  ///< Misses caused by stale statistics.
    uint64_t insertions = 0;
    uint64_t evictions = 0;      ///< LRU capacity evictions.
  };

  /// `versions` is the tracker invalidating this cache; null creates a
  /// private one (standalone/unit-test use). The appliance passes one
  /// shared tracker to both caches so a single LoadRows invalidates both.
  VersionedLru(size_t capacity, std::shared_ptr<TableVersionTracker> versions,
               std::string metric_prefix)
      : capacity_(capacity),
        versions_(versions != nullptr
                      ? std::move(versions)
                      : std::make_shared<TableVersionTracker>()),
        prefix_(std::move(metric_prefix)) {}

  /// Returns a copy of the entry if present and current, marking it most
  /// recently used; a stale entry is removed and counted as an
  /// invalidation. Every failed lookup counts as a miss.
  std::optional<V> Lookup(const std::string& normalized_sql,
                          const std::string& options_fingerprint) {
    std::optional<V> hit = Find(Key(normalized_sql, options_fingerprint));
    if (!hit.has_value()) CountMiss();
    return hit;
  }

  /// Inserts (or replaces) the entry for the key, evicting the least
  /// recently used entry when over capacity.
  void Insert(const std::string& normalized_sql,
              const std::string& options_fingerprint, V value) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    std::lock_guard<std::mutex> lock(mu_);
    Key key(normalized_sql, options_fingerprint);
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->value = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
    } else {
      entries_.push_front(Entry{key, std::move(value), /*hits=*/0});
      index_[std::move(key)] = entries_.begin();
      if (entries_.size() > capacity_) {
        index_.erase(entries_.back().key);
        entries_.pop_back();
        ++stats_.evictions;
        reg.Count(prefix_ + ".eviction");
      }
    }
    ++stats_.insertions;
    reg.SetGauge(prefix_ + ".size", static_cast<double>(entries_.size()));
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    index_.clear();
    obs::MetricsRegistry::Global().SetGauge(prefix_ + ".size", 0);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  /// Point-in-time copy of every entry, most recently used first.
  std::vector<CacheEntryInfo> ListEntries() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<CacheEntryInfo> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) {
      CacheEntryInfo info;
      info.normalized_sql = e.key.first;
      info.options_fingerprint = e.key.second;
      info.hits = e.hits;
      info.count = e.value.listed_count();
      info.modeled_cost = e.value.modeled_cost;
      for (const auto& [table, version] : e.value.table_versions) {
        info.tables.push_back(table);
      }
      out.push_back(std::move(info));
    }
    return out;
  }

 protected:
  /// (normalized SQL, options fingerprint).
  using Key = std::pair<std::string, std::string>;

  /// Lookup that counts hits and invalidations but leaves the miss to the
  /// caller: the result cache counts a coalesced follower as coalesced.
  std::optional<V> Find(const Key& key) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    if (!versions_->IsCurrent(it->second->value.table_versions)) {
      entries_.erase(it->second);
      index_.erase(it);
      ++stats_.invalidations;
      reg.Count(prefix_ + ".invalidation");
      reg.SetGauge(prefix_ + ".size", static_cast<double>(entries_.size()));
      return std::nullopt;
    }
    entries_.splice(entries_.begin(), entries_, it->second);
    ++stats_.hits;
    ++it->second->hits;
    reg.Count(prefix_ + ".hit");
    return it->second->value;
  }

  void CountMiss() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.misses;
    }
    obs::MetricsRegistry::Global().Count(prefix_ + ".miss");
  }

 private:
  struct Entry {
    Key key;
    V value;
    uint64_t hits = 0;
  };

  mutable std::mutex mu_;
  const size_t capacity_;
  const std::shared_ptr<TableVersionTracker> versions_;
  const std::string prefix_;
  std::list<Entry> entries_;  ///< Front = most recently used.
  std::map<Key, typename std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace pdw

#endif  // PDW_PDW_VERSIONED_LRU_H_
