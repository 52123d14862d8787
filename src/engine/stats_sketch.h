#ifndef PDW_ENGINE_STATS_SKETCH_H_
#define PDW_ENGINE_STATS_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/datum.h"
#include "common/schema.h"
#include "engine/batch.h"
#include "stats/column_stats.h"
#include "stats/histogram.h"

namespace pdw {

/// Incrementally maintained local statistics of one stored table. Rows
/// [0, rows()) of the table's columnar mirror have been folded in; Fold
/// adds only the rows appended since, so keeping statistics fresh costs in
/// proportion to the data changed, not the table size.
///
/// Per column the sketch keeps the null count, the width sum, min/max, the
/// sorted distinct Datum::Hash values (8 bytes per distinct value) and, for
/// numeric declared types, the sorted (value, count) runs (16 bytes per
/// distinct value). Those determine ColumnStats::FromRows exactly: NDV is
/// the number of distinct hashes, and the histogram is
/// Histogram::FromRuns over the runs — the same bucketing Histogram::Build
/// runs after sorting — so derived statistics equal a full recompute
/// field for field, histogram buckets included.
class StatsSketch {
 public:
  /// Folds rows [rows(), mirror.rows) of `mirror` into the sketch. The
  /// mirror must only ever have grown by appends since the last fold.
  void Fold(const ColumnBatch& mirror);

  /// Statistics of the folded rows; `schema` is the table's.
  TableStats Derive(const Schema& schema, int histogram_buckets) const;

  /// Rows folded so far (the watermark).
  size_t rows() const { return rows_; }

  /// Heap bytes held by the sorted hash and run arrays (capacity).
  size_t MemoryBytes() const;

 private:
  struct Column {
    uint64_t nulls = 0;
    uint64_t width_sum = 0;  ///< Datum::Width over non-null values.
    Datum min;
    Datum max;
    std::vector<size_t> hashes;  ///< Sorted distinct Datum::Hash values.
    std::vector<ValueRun> runs;  ///< Numeric declared types only.
  };

  static void FoldColumn(const ColumnVector& col, size_t begin, size_t end,
                         Column* out);

  size_t rows_ = 0;
  std::vector<Column> columns_;
};

}  // namespace pdw

#endif  // PDW_ENGINE_STATS_SKETCH_H_
