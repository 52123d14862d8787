#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace pdw {

std::vector<ValueRun> SortedRuns(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::vector<ValueRun> runs;
  for (double v : values) {
    if (!runs.empty() && runs.back().value == v) {
      ++runs.back().count;
    } else {
      runs.push_back({v == 0 ? 0.0 : v, 1});
    }
  }
  return runs;
}

Histogram Histogram::Build(std::vector<double> values, int num_buckets) {
  return FromRuns(SortedRuns(std::move(values)), num_buckets);
}

Histogram Histogram::FromRuns(const std::vector<ValueRun>& runs,
                              int num_buckets) {
  Histogram h;
  if (runs.empty() || num_buckets <= 0) return h;
  uint64_t n = 0;
  for (const ValueRun& r : runs) n += r.count;
  h.min_ = runs.front().value;
  h.max_ = runs.back().value;
  h.total_rows_ = static_cast<double>(n);

  uint64_t per_bucket =
      std::max<uint64_t>(1, n / static_cast<uint64_t>(num_buckets));
  size_t r = 0;
  uint64_t start = 0;  // rows before the open bucket
  while (r < runs.size()) {
    // The bucket takes runs until it reaches per_bucket rows; the run that
    // crosses the target stays whole, so equal values never straddle a
    // boundary.
    uint64_t target = std::min(n, start + per_bucket);
    uint64_t end = start;
    size_t first = r;
    while (end < target) end += runs[r++].count;
    HistogramBucket b;
    b.upper_bound = runs[r - 1].value;
    b.row_count = static_cast<double>(end - start);
    b.distinct_count = static_cast<double>(r - first);
    h.buckets_.push_back(b);
    start = end;
  }
  return h;
}

Histogram Histogram::FromParts(double min, std::vector<HistogramBucket> buckets) {
  Histogram h;
  h.min_ = min;
  h.buckets_ = std::move(buckets);
  for (const auto& b : h.buckets_) h.total_rows_ += b.row_count;
  h.max_ = h.buckets_.empty() ? min : h.buckets_.back().upper_bound;
  return h;
}

Histogram Histogram::Merge(const std::vector<Histogram>& parts, bool disjoint) {
  Histogram out;
  // Gather the union of all boundary points.
  std::vector<double> bounds;
  bool any = false;
  double gmin = 0;
  double gmax = 0;
  for (const Histogram& p : parts) {
    if (p.empty()) continue;
    if (!any) {
      gmin = p.min();
      gmax = p.max();
      any = true;
    } else {
      gmin = std::min(gmin, p.min());
      gmax = std::max(gmax, p.max());
    }
    for (const auto& b : p.buckets_) bounds.push_back(b.upper_bound);
  }
  if (!any) return out;
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  out.min_ = gmin;
  out.max_ = gmax;

  // For each merged bucket (lo, hi], pro-rate each input histogram's
  // contribution by linear interpolation inside its buckets.
  double lo = gmin;
  for (double hi : bounds) {
    HistogramBucket mb;
    mb.upper_bound = hi;
    double max_distinct = 0;
    for (const Histogram& p : parts) {
      if (p.empty()) continue;
      double rows = p.EstimateLess(hi, /*inclusive=*/true) -
                    p.EstimateLess(lo, /*inclusive=*/true);
      if (hi == gmin && lo == gmin) {
        // Degenerate first point: count values == gmin.
        rows = p.EstimateEquals(gmin);
      }
      if (rows <= 0) continue;
      mb.row_count += rows;
      // Approximate slice distinct as rows * (histogram-wide distinct ratio).
      double ratio = p.total_rows_ > 0 ? p.TotalDistinct() / p.total_rows_ : 1.0;
      double d = rows * ratio;
      if (disjoint) {
        mb.distinct_count += d;
      } else {
        max_distinct = std::max(max_distinct, d);
      }
    }
    if (!disjoint) {
      // Overlapping domains: distinct count is at least the max part and at
      // most the sum; use the max as a conservative (low-variance) estimate.
      mb.distinct_count = max_distinct;
    }
    if (mb.row_count > 0) {
      mb.distinct_count = std::max(1.0, std::min(mb.distinct_count, mb.row_count));
      out.buckets_.push_back(mb);
      out.total_rows_ += mb.row_count;
    }
    lo = hi;
  }
  return out;
}

double Histogram::EstimateLess(double v, bool inclusive) const {
  if (buckets_.empty()) return 0;
  if (v < min_) return 0;
  if (v >= max_) {
    if (v > max_ || inclusive) return total_rows_;
    // v == max_, exclusive: subtract an estimate of rows equal to max.
    return total_rows_ - EstimateEquals(max_);
  }
  double acc = 0;
  double lo = min_;
  for (const auto& b : buckets_) {
    if (v > b.upper_bound) {
      acc += b.row_count;
      lo = b.upper_bound;
      continue;
    }
    // v falls in this bucket: linear interpolation.
    double width = b.upper_bound - lo;
    double frac = width > 0 ? (v - lo) / width : 1.0;
    frac = std::clamp(frac, 0.0, 1.0);
    acc += b.row_count * frac;
    if (inclusive && b.distinct_count > 0) {
      acc += b.row_count / b.distinct_count * 0.5;  // half an equality class
    }
    return std::min(acc, total_rows_);
  }
  return acc;
}

double Histogram::EstimateEquals(double v) const {
  if (buckets_.empty() || v < min_ || v > max_) return 0;
  double lo = min_;
  for (const auto& b : buckets_) {
    if (v <= b.upper_bound) {
      if (v < lo) return 0;
      return b.distinct_count > 0 ? b.row_count / b.distinct_count
                                  : b.row_count;
    }
    lo = b.upper_bound;
  }
  return 0;
}

double Histogram::TotalDistinct() const {
  double d = 0;
  for (const auto& b : buckets_) d += b.distinct_count;
  return d;
}

}  // namespace pdw
