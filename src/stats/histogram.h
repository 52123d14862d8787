#ifndef PDW_STATS_HISTOGRAM_H_
#define PDW_STATS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace pdw {

/// A run of equal values in a sorted numeric column: the value and the
/// number of rows holding it (16 bytes — the per-distinct-value cost of a
/// statistics sketch's numeric runs).
struct ValueRun {
  double value = 0;
  uint64_t count = 0;
};

/// Sorts `values` and run-length encodes them into ascending runs. Zero is
/// canonicalized to +0.0, so a run's value does not depend on whether -0.0
/// or 0.0 sorted first.
std::vector<ValueRun> SortedRuns(std::vector<double> values);

/// One bucket of an equi-height histogram over a numeric domain. Buckets
/// cover (previous upper_bound, upper_bound]; the first bucket's lower edge
/// is the histogram's min().
struct HistogramBucket {
  double upper_bound = 0;
  double row_count = 0;       ///< Rows falling in this bucket.
  double distinct_count = 0;  ///< Distinct values in this bucket.
};

/// Equi-height histogram used for range-predicate selectivity. INT, DOUBLE
/// and DATE columns map onto the double domain; VARCHAR columns carry NDV
/// and null counts only (no histogram).
class Histogram {
 public:
  Histogram() = default;

  /// Builds an equi-height histogram with at most `num_buckets` buckets.
  /// `values` need not be sorted; NULLs must be excluded by the caller.
  /// Equivalent to FromRuns(SortedRuns(values), num_buckets).
  static Histogram Build(std::vector<double> values, int num_buckets);

  /// The equi-height bucketing: walks ascending value runs, closing a
  /// bucket once it holds at least total/num_buckets rows. A run never
  /// straddles a boundary, so a bucket's distinct count is its run count.
  static Histogram FromRuns(const std::vector<ValueRun>& runs,
                            int num_buckets);

  /// Merges per-node histograms into a global one (shell-database global
  /// statistics, paper §2.2). Bucket boundaries are the union of input
  /// boundaries; row counts add; distinct counts add when `disjoint` (the
  /// column is the hash-distribution column, so each value lives on exactly
  /// one node) and otherwise take a max-based overlap estimate.
  static Histogram Merge(const std::vector<Histogram>& parts, bool disjoint);

  bool empty() const { return buckets_.empty(); }
  double total_rows() const { return total_rows_; }
  double min() const { return min_; }
  double max() const { return max_; }
  const std::vector<HistogramBucket>& buckets() const { return buckets_; }

  /// Reconstructs a histogram from serialized state (XML import).
  static Histogram FromParts(double min, std::vector<HistogramBucket> buckets);

  /// Estimated number of rows with value < v (or <= v).
  double EstimateLess(double v, bool inclusive) const;

  /// Estimated number of rows with value == v.
  double EstimateEquals(double v) const;

  /// Estimated distinct count over the whole histogram.
  double TotalDistinct() const;

 private:
  std::vector<HistogramBucket> buckets_;
  double min_ = 0;
  double max_ = 0;
  double total_rows_ = 0;
};

}  // namespace pdw

#endif  // PDW_STATS_HISTOGRAM_H_
