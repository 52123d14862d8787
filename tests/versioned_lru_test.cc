// The stats-versioned LRU behind the plan cache and the result cache:
// replacement, recency order of the listing, stale-entry invalidation and
// the metrics it mirrors. Cache-specific behaviour (the plan_cache.fill
// fault point, result-cache coalescing) is tested with each cache.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "pdw/versioned_lru.h"

namespace pdw {
namespace {

struct Value {
  int id = 0;
  double modeled_cost = 0;
  std::vector<std::pair<std::string, uint64_t>> table_versions;

  int64_t listed_count() const { return id; }
};

Value MakeValue(int id, double modeled_cost = 0) {
  Value v;
  v.id = id;
  v.modeled_cost = modeled_cost;
  return v;
}

std::vector<std::string> ListedSql(const VersionedLru<Value>& lru) {
  std::vector<std::string> out;
  for (const CacheEntryInfo& e : lru.ListEntries()) {
    out.push_back(e.normalized_sql);
  }
  return out;
}

TEST(VersionedLruTest, ReinsertReplacesWithoutGrowingOrEvicting) {
  VersionedLru<Value> lru(2, nullptr, "test_lru_reinsert");
  lru.Insert("q1", "f", MakeValue(1));
  lru.Insert("q2", "f", MakeValue(2));
  lru.Insert("q1", "f", MakeValue(10));
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.stats().evictions, 0u);
  EXPECT_EQ(lru.stats().insertions, 3u);
  auto q1 = lru.Lookup("q1", "f");
  ASSERT_TRUE(q1.has_value());
  EXPECT_EQ(q1->id, 10);
  EXPECT_TRUE(lru.Lookup("q2", "f").has_value());
  // Same SQL under another fingerprint is a separate entry.
  lru.Insert("q1", "g", MakeValue(3));
  EXPECT_EQ(lru.stats().evictions, 1u);
  EXPECT_EQ(lru.size(), 2u);
}

TEST(VersionedLruTest, ListEntriesIsMruFirstAfterAHit) {
  VersionedLru<Value> lru(4, nullptr, "test_lru_order");
  lru.Insert("q1", "f1", MakeValue(1, 1.5));
  lru.Insert("q2", "f2", MakeValue(2));
  lru.Insert("q3", "f3", MakeValue(3));
  EXPECT_EQ(ListedSql(lru), (std::vector<std::string>{"q3", "q2", "q1"}));
  ASSERT_TRUE(lru.Lookup("q1", "f1").has_value());
  EXPECT_EQ(ListedSql(lru), (std::vector<std::string>{"q1", "q3", "q2"}));

  std::vector<CacheEntryInfo> entries = lru.ListEntries();
  EXPECT_EQ(entries[0].options_fingerprint, "f1");
  EXPECT_EQ(entries[0].hits, 1u);
  EXPECT_EQ(entries[0].count, 1);
  EXPECT_EQ(entries[0].modeled_cost, 1.5);
  EXPECT_EQ(entries[1].hits, 0u);
}

TEST(VersionedLruTest, StaleEntryIsRemovedAtLookupAndCountedOnce) {
  auto versions = std::make_shared<TableVersionTracker>();
  VersionedLru<Value> lru(4, versions, "test_lru_stale");
  Value v;
  v.table_versions = {{"t", versions->Version("t")}};
  lru.Insert("q", "f", v);
  lru.Insert("other", "f", MakeValue(0));  // reads no table: never stale
  ASSERT_TRUE(lru.Lookup("q", "f").has_value());

  versions->Bump("T");  // case-insensitive
  EXPECT_EQ(lru.size(), 2u) << "invalidation is lazy, at lookup";
  EXPECT_FALSE(lru.Lookup("q", "f").has_value());
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(ListedSql(lru), (std::vector<std::string>{"other"}));
  EXPECT_FALSE(lru.Lookup("q", "f").has_value());

  VersionedLru<Value>::Stats stats = lru.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.misses, 2u);  // the invalidating lookup and the next one
  EXPECT_EQ(stats.hits, 1u);
  obs::MetricsSnapshot m = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(m.counters["test_lru_stale.invalidation"], 1);
  EXPECT_EQ(m.counters["test_lru_stale.miss"], 2);
  EXPECT_EQ(m.counters["test_lru_stale.hit"], 1);
  EXPECT_EQ(m.gauges["test_lru_stale.size"], 1);
}

}  // namespace
}  // namespace pdw
