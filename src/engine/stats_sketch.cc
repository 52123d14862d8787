#include "engine/stats_sketch.h"

#include <algorithm>
#include <functional>

#include "common/string_util.h"

namespace pdw {

namespace {

/// Merges the ascending, duplicate-free `delta` into the ascending,
/// duplicate-free `*dst`, keeping it so: an element already present is
/// absorbed into its match (`absorb(&match, element)`), the rest merge in
/// place from the back, so entries below the smallest new one never move.
template <typename T, typename Less, typename Absorb>
void MergeSorted(std::vector<T> delta, std::vector<T>* dst, Less less,
                 Absorb absorb) {
  size_t kept = 0;
  auto lo = dst->begin();
  for (T& e : delta) {
    lo = std::lower_bound(lo, dst->end(), e, less);
    if (lo != dst->end() && !less(e, *lo)) {
      absorb(&*lo, e);
    } else {
      delta[kept++] = e;
    }
  }
  if (kept == 0) return;
  size_t n = dst->size();
  dst->reserve(GrownCapacity(dst->capacity(), n, n + kept));
  dst->resize(n + kept);
  size_t i = n;
  size_t j = kept;
  for (size_t k = n + kept; j > 0; --k) {
    if (i > 0 && less(delta[j - 1], (*dst)[i - 1])) {
      (*dst)[k - 1] = (*dst)[--i];
    } else {
      (*dst)[k - 1] = delta[--j];
    }
  }
}

}  // namespace

void StatsSketch::Fold(const ColumnBatch& mirror) {
  columns_.resize(mirror.columns.size());
  if (mirror.rows <= rows_) return;
  for (size_t c = 0; c < mirror.columns.size(); ++c) {
    FoldColumn(mirror.columns[c], rows_, mirror.rows, &columns_[c]);
  }
  rows_ = mirror.rows;
}

void StatsSketch::FoldColumn(const ColumnVector& col, size_t begin,
                             size_t end, Column* out) {
  const bool numeric = IsNumericType(col.declared_type());
  const int fixed_width = DefaultTypeWidth(col.declared_type());
  std::vector<size_t> hashes;
  std::vector<double> values;
  hashes.reserve(end - begin);
  if (numeric) values.reserve(end - begin);
  // Typed planes hold one runtime type, over which Compare is a total
  // order: track the delta's first min/max by index and offer them to the
  // sketch's once. Variant columns compare Datums row by row, exactly as
  // FromRows does (mixed-kind comparisons need not be transitive).
  const bool variant = col.tag() == VecTag::kVariant;
  size_t min_i = end;
  size_t max_i = end;
  for (size_t i = begin; i < end; ++i) {
    if (col.IsNull(i)) {
      ++out->nulls;
      continue;
    }
    hashes.push_back(col.HashAt(i));
    switch (col.tag()) {
      case VecTag::kInt64:
        out->width_sum += static_cast<uint64_t>(fixed_width);
        if (numeric) values.push_back(static_cast<double>(col.i64(i)));
        break;
      case VecTag::kDouble:
        out->width_sum += static_cast<uint64_t>(fixed_width);
        if (numeric) values.push_back(col.f64(i));
        break;
      case VecTag::kString:
        out->width_sum += col.str(i).size();
        break;
      case VecTag::kVariant: {
        const Datum& d = col.variant(i);
        out->width_sum += static_cast<uint64_t>(d.Width());
        double v;
        if (numeric && NumericValue(d, &v)) values.push_back(v);
        if (out->min.is_null() || d.Compare(out->min) < 0) out->min = d;
        if (out->max.is_null() || d.Compare(out->max) > 0) out->max = d;
        continue;
      }
    }
    if (min_i == end || CompareAt(col, i, col, min_i) < 0) min_i = i;
    if (max_i == end || CompareAt(col, i, col, max_i) > 0) max_i = i;
  }
  if (!variant && min_i != end) {
    Datum lo = col.GetDatum(min_i);
    Datum hi = col.GetDatum(max_i);
    if (out->min.is_null() || lo.Compare(out->min) < 0) out->min = lo;
    if (out->max.is_null() || hi.Compare(out->max) > 0) out->max = hi;
  }

  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  MergeSorted(
      std::move(hashes), &out->hashes, std::less<size_t>(),
      [](size_t*, size_t) {});
  if (!values.empty()) {
    MergeSorted(
        SortedRuns(std::move(values)), &out->runs,
        [](const ValueRun& a, const ValueRun& b) { return a.value < b.value; },
        [](ValueRun* into, const ValueRun& from) { into->count += from.count; });
  }
}

TableStats StatsSketch::Derive(const Schema& schema,
                               int histogram_buckets) const {
  TableStats stats;
  const double rows = static_cast<double>(rows_);
  stats.row_count = rows;
  uint64_t row_width = 0;  // RowWidth counts a NULL as 1 byte
  for (const Column& c : columns_) row_width += c.width_sum + c.nulls;
  stats.avg_row_width = rows_ == 0 ? 0 : static_cast<double>(row_width) / rows;
  static const Column kUnfolded;
  for (int i = 0; i < schema.num_columns(); ++i) {
    const ColumnDef& def = schema.column(i);
    const size_t ci = static_cast<size_t>(i);
    const Column& c = ci < columns_.size() ? columns_[ci] : kUnfolded;
    ColumnStats s;
    s.row_count = rows;
    s.null_count = static_cast<double>(c.nulls);
    s.distinct_count = static_cast<double>(c.hashes.size());
    double non_null = rows - s.null_count;
    s.avg_width = non_null > 0 ? static_cast<double>(c.width_sum) / non_null
                               : DefaultTypeWidth(def.type);
    s.min_value = c.min;
    s.max_value = c.max;
    if (IsNumericType(def.type) && !c.runs.empty()) {
      s.histogram = Histogram::FromRuns(c.runs, histogram_buckets);
    }
    stats.columns[ToLower(def.name)] = std::move(s);
  }
  return stats;
}

size_t StatsSketch::MemoryBytes() const {
  size_t bytes = columns_.capacity() * sizeof(Column);
  for (const Column& c : columns_) {
    bytes += c.hashes.capacity() * sizeof(size_t) +
             c.runs.capacity() * sizeof(ValueRun);
  }
  return bytes;
}

}  // namespace pdw
