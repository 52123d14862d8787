#ifndef PDW_PDW_RESULT_CACHE_H_
#define PDW_PDW_RESULT_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/row.h"
#include "pdw/plan_cache.h"

namespace pdw {

/// One finished query result as the control node retains it: the rows a
/// byte-identical re-execution would produce, plus the compile-side
/// annotations a cache hit must still report, plus the statistics versions
/// anchoring invalidation (same machinery as the plan cache).
struct CachedQueryResult {
  std::vector<std::string> column_names;
  RowVector rows;
  std::string plan_text;
  double modeled_cost = 0;
  std::vector<std::pair<std::string, uint64_t>> table_versions;

  int64_t listed_count() const { return static_cast<int64_t>(rows.size()); }
};

/// The control node's result cache: the stats-versioned LRU (see
/// VersionedLru) over finished results, plus in-flight coalescing — the
/// degenerate-but-high-value case of GLADE-style shared work: two identical
/// queries running at once do the work once. It shares the plan cache's
/// TableVersionTracker, so LoadRows / RefreshStatistics on any scanned
/// table drops dependent results exactly as it drops dependent plans.
///
/// Coalescing protocol (LookupOrJoin):
///  * LRU hit  -> the cached result is returned immediately.
///  * miss, no identical query in flight -> the caller becomes the
///    *leader*: it must execute the query and then call Publish (success)
///    or FailFlight (error) with the same key.
///  * miss, identical query in flight -> the caller becomes a *follower*
///    and blocks until the leader publishes; it receives a copy of the
///    leader's rows (byte-identical by construction). When the leader
///    fails, followers are released to retry LookupOrJoin — the first one
///    back becomes the new leader, so one cancelled or faulted leader
///    never poisons innocent concurrent sessions. A follower whose own
///    cancel flag is set stops waiting with kCancelled; the leader is
///    unaffected.
///
/// All methods are thread-safe. Metrics: result_cache.* (the LRU's
/// counters plus result_cache.coalesced).
class ResultCache : private VersionedLru<CachedQueryResult> {
 public:
  struct Stats : VersionedLru::Stats {
    uint64_t coalesced = 0;  ///< Follower waits served by a leader.
  };

  /// `versions` must be the same tracker the plan cache uses (the
  /// appliance's); null creates a private one for standalone tests.
  explicit ResultCache(size_t capacity = 64,
                       std::shared_ptr<TableVersionTracker> versions = nullptr)
      : VersionedLru(capacity, std::move(versions), "result_cache") {}

  /// The coalescing entry point (see class comment). Returns the cached or
  /// leader-published result, or std::nullopt when the caller has become
  /// the leader and owns the execute-then-Publish/FailFlight obligation.
  /// `coalesced` (optional) is set when the result came from waiting on an
  /// in-flight leader rather than the LRU. A follower whose `cancel` flag
  /// is set (Poke wakes it) returns kCancelled and never leads.
  Result<std::optional<CachedQueryResult>> LookupOrJoin(
      const std::string& normalized_sql,
      const std::string& options_fingerprint,
      const std::atomic<bool>* cancel, bool* coalesced = nullptr);
  /// LookupOrJoin for a caller that cannot be cancelled.
  std::optional<CachedQueryResult> LookupOrJoin(
      const std::string& normalized_sql,
      const std::string& options_fingerprint, bool* coalesced = nullptr) {
    return *LookupOrJoin(normalized_sql, options_fingerprint, nullptr,
                         coalesced);
  }

  /// Leader success: wakes followers with a copy of `result` and inserts
  /// it into the LRU (evicting the least recently used beyond capacity).
  void Publish(const std::string& normalized_sql,
               const std::string& options_fingerprint,
               CachedQueryResult result);

  /// Leader failure: wakes followers empty-handed so one of them retries
  /// as the new leader. The failed execution inserts nothing.
  void FailFlight(const std::string& normalized_sql,
                  const std::string& options_fingerprint);

  /// Wakes all followers to re-check their cancel flags
  /// (Appliance::Cancel).
  void Poke();

  Stats stats() const;

  /// Plain lookup with no coalescing side effects (DMV/test use).
  using VersionedLru::Lookup;
  using VersionedLru::Clear;
  using VersionedLru::size;
  using VersionedLru::ListEntries;

 private:
  /// One in-flight execution identical queries coalesce onto. Followers
  /// hold the shared_ptr, so a leader resolving (and erasing the map
  /// entry) never invalidates a waiter mid-wait.
  struct InFlight {
    bool done = false;
    bool ok = false;
    CachedQueryResult result;  ///< Valid when done && ok.
  };

  /// Guards the flight map and `coalesced_`. Taken before the LRU's own
  /// lock, so a lookup and the flight check it falls through to are one
  /// atomic step, and so is a publish with its insert.
  mutable std::mutex flight_mu_;
  std::condition_variable flight_cv_;
  std::map<Key, std::shared_ptr<InFlight>> inflight_;
  uint64_t coalesced_ = 0;
};

}  // namespace pdw

#endif  // PDW_PDW_RESULT_CACHE_H_
