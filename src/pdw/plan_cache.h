#ifndef PDW_PDW_PLAN_CACHE_H_
#define PDW_PDW_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/query_profile.h"
#include "pdw/compiler.h"
#include "pdw/dsql.h"
#include "pdw/versioned_lru.h"

namespace pdw {

/// Canonical cache-key form of a query text: whitespace runs collapse to a
/// single space and everything *outside* single-quoted string literals is
/// lowercased (literal contents are data and must keep their case), so
/// reformatting a query still hits the cache.
std::string NormalizeSqlForPlanCache(const std::string& sql);

/// Serializes every compilation knob that can change the produced plan into
/// a stable string. Two option sets with different fingerprints always get
/// distinct cache entries.
std::string FingerprintCompilerOptions(const PdwCompilerOptions& options);

/// Everything the control node must retain to re-execute a compiled query
/// without re-running the parse→memo→XML→enumeration pipeline.
struct CachedDsqlPlan {
  DsqlPlan dsql;
  std::vector<std::string> output_names;
  std::string plan_text;             ///< EXPLAIN rendering of the plan tree.
  double modeled_cost = 0;
  obs::OptimizerProfile optimizer;   ///< Search counters of the original run.
  /// Statistics version of every base table the plan scans, captured at
  /// compile time; a mismatch at lookup time invalidates the entry.
  std::vector<std::pair<std::string, uint64_t>> table_versions;

  int64_t listed_count() const {
    return static_cast<int64_t>(dsql.steps.size());
  }
};

/// The control node's compiled-DSQL-plan cache: the stats-versioned LRU
/// (see VersionedLru) over compiled plans. A plan compiled against stale
/// statistics is never served — distribution-dependent plan choices (§3.2)
/// hinge on those statistics. Metrics: plan_cache.*.
class PlanCache : public VersionedLru<CachedDsqlPlan> {
 public:
  explicit PlanCache(size_t capacity = 128,
                     std::shared_ptr<TableVersionTracker> versions = nullptr)
      : VersionedLru(capacity, std::move(versions), "plan_cache") {}

  /// VersionedLru::Insert, except that an injected control-node failure
  /// at the plan_cache.fill fault point skips the insert: the query runs
  /// uncached instead of failing.
  void Insert(const std::string& normalized_sql,
              const std::string& options_fingerprint, CachedDsqlPlan plan);
};

}  // namespace pdw

#endif  // PDW_PDW_PLAN_CACHE_H_
