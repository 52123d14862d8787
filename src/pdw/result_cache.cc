#include "pdw/result_cache.h"

#include "obs/metrics.h"

namespace pdw {

Result<std::optional<CachedQueryResult>> ResultCache::LookupOrJoin(
    const std::string& normalized_sql, const std::string& options_fingerprint,
    const std::atomic<bool>* cancel, bool* coalesced) {
  if (coalesced != nullptr) *coalesced = false;
  Key key(normalized_sql, options_fingerprint);
  std::unique_lock<std::mutex> lock(flight_mu_);
  for (;;) {
    if (auto hit = Find(key)) return hit;
    auto flight = inflight_.find(key);
    if (flight == inflight_.end()) {
      // No identical query in flight: the caller leads. The entry stays
      // until the leader's Publish or FailFlight resolves it.
      inflight_[key] = std::make_shared<InFlight>();
      CountMiss();
      return std::optional<CachedQueryResult>();
    }
    // Identical query already executing: wait for its leader instead of
    // running redundantly. The shared_ptr keeps the flight alive across
    // the leader erasing the map entry.
    std::shared_ptr<InFlight> f = flight->second;
    auto cancelled = [&] { return cancel != nullptr && cancel->load(); };
    flight_cv_.wait(lock, [&] { return f->done || cancelled(); });
    if (!f->done) {
      return Status::Cancelled("query cancelled while waiting on an "
                               "identical in-flight query");
    }
    if (f->ok) {
      ++coalesced_;
      obs::MetricsRegistry::Global().Count("result_cache.coalesced");
      if (coalesced != nullptr) *coalesced = true;
      return std::optional<CachedQueryResult>(f->result);
    }
    // Leader failed: loop back — the LRU may have been filled meanwhile by
    // a different key variant, or this caller becomes the new leader.
  }
}

void ResultCache::Publish(const std::string& normalized_sql,
                          const std::string& options_fingerprint,
                          CachedQueryResult result) {
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    auto flight = inflight_.find({normalized_sql, options_fingerprint});
    if (flight != inflight_.end()) {
      flight->second->result = result;  // copy: followers share these rows
      flight->second->ok = true;
      flight->second->done = true;
      inflight_.erase(flight);
    }
    Insert(normalized_sql, options_fingerprint, std::move(result));
  }
  flight_cv_.notify_all();
}

void ResultCache::FailFlight(const std::string& normalized_sql,
                             const std::string& options_fingerprint) {
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    auto flight = inflight_.find({normalized_sql, options_fingerprint});
    if (flight == inflight_.end()) return;
    flight->second->ok = false;
    flight->second->done = true;
    inflight_.erase(flight);
  }
  flight_cv_.notify_all();
}

void ResultCache::Poke() {
  std::lock_guard<std::mutex> lock(flight_mu_);
  flight_cv_.notify_all();
}

ResultCache::Stats ResultCache::stats() const {
  Stats out;
  static_cast<VersionedLru::Stats&>(out) = VersionedLru::stats();
  std::lock_guard<std::mutex> lock(flight_mu_);
  out.coalesced = coalesced_;
  return out;
}

}  // namespace pdw
