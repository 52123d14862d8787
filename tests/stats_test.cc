#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <random>

#include "appliance/appliance.h"
#include "common/string_util.h"
#include "engine/local_engine.h"
#include "engine/stats_sketch.h"
#include "stats/column_stats.h"
#include "stats/histogram.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

TEST(HistogramTest, UniformEstimates) {
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) values.push_back(i % 1000);
  Histogram h = Histogram::Build(values, 32);
  EXPECT_EQ(h.total_rows(), 10000);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 999);
  // ~half the rows below 500.
  double below = h.EstimateLess(500, false);
  EXPECT_NEAR(below, 5000, 600);
  // Equality: ~10 rows per value.
  EXPECT_NEAR(h.EstimateEquals(500), 10, 8);
  // Out of range.
  EXPECT_EQ(h.EstimateEquals(-5), 0);
  EXPECT_EQ(h.EstimateLess(-5, true), 0);
  EXPECT_EQ(h.EstimateLess(5000, true), 10000);
}

TEST(HistogramTest, SkewedData) {
  std::vector<double> values(9000, 1.0);
  for (int i = 0; i < 1000; ++i) values.push_back(100 + i);
  Histogram h = Histogram::Build(values, 16);
  // The heavy value dominates its bucket.
  EXPECT_GT(h.EstimateEquals(1.0), 4000);
  EXPECT_LT(h.EstimateEquals(500.0), 100);
}

TEST(HistogramTest, EmptyAndSingle) {
  Histogram empty = Histogram::Build({}, 8);
  EXPECT_TRUE(empty.empty());
  Histogram single = Histogram::Build({42.0}, 8);
  EXPECT_EQ(single.total_rows(), 1);
  EXPECT_GT(single.EstimateEquals(42.0), 0);
}

TEST(HistogramTest, MergePreservesTotals) {
  std::vector<Histogram> parts;
  double total = 0;
  for (int p = 0; p < 4; ++p) {
    std::vector<double> values;
    for (int i = 0; i < 1000; ++i) values.push_back((i * 7 + p * 250) % 1000);
    total += static_cast<double>(values.size());
    parts.push_back(Histogram::Build(values, 16));
  }
  Histogram merged = Histogram::Merge(parts, /*disjoint=*/false);
  EXPECT_NEAR(merged.total_rows(), total, total * 0.02);
  EXPECT_EQ(merged.min(), 0);
  EXPECT_EQ(merged.max(), 999);
}

TEST(ColumnStatsTest, FromRows) {
  RowVector rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({Datum::Int(i % 10), Datum::Varchar("v" + std::to_string(i))});
  }
  rows.push_back({Datum::Null(), Datum::Null()});
  ColumnStats c0 = ColumnStats::FromRows(rows, 0, TypeId::kInt);
  EXPECT_EQ(c0.row_count, 101);
  EXPECT_EQ(c0.null_count, 1);
  EXPECT_EQ(c0.distinct_count, 10);
  EXPECT_EQ(c0.min_value.int_value(), 0);
  EXPECT_EQ(c0.max_value.int_value(), 9);
  EXPECT_FALSE(c0.histogram.empty());

  ColumnStats c1 = ColumnStats::FromRows(rows, 1, TypeId::kVarchar);
  EXPECT_EQ(c1.distinct_count, 100);
  EXPECT_TRUE(c1.histogram.empty());
}

TEST(ColumnStatsTest, SelectivityEstimates) {
  RowVector rows;
  for (int i = 0; i < 1000; ++i) rows.push_back({Datum::Int(i)});
  ColumnStats cs = ColumnStats::FromRows(rows, 0, TypeId::kInt);
  EXPECT_NEAR(cs.EqualsSelectivity(Datum::Int(500)), 0.001, 0.002);
  EXPECT_NEAR(cs.RangeSelectivity(Datum::Int(250), true, Datum::Int(750), false),
              0.5, 0.05);
  EXPECT_NEAR(cs.RangeSelectivity(Datum::Null(), false, Datum::Int(100), false),
              0.1, 0.03);
}

TEST(StatsMergeTest, DisjointNdvAddsExactly) {
  // Simulates per-node stats on the hash-distribution column: value sets
  // are disjoint, so global NDV is the sum (paper §2.2 merge).
  std::vector<ColumnStats> parts;
  for (int node = 0; node < 4; ++node) {
    RowVector rows;
    for (int i = 0; i < 250; ++i) rows.push_back({Datum::Int(node * 1000 + i)});
    parts.push_back(ColumnStats::FromRows(rows, 0, TypeId::kInt));
  }
  ColumnStats merged = ColumnStats::Merge(parts, /*disjoint_values=*/true);
  EXPECT_EQ(merged.row_count, 1000);
  EXPECT_EQ(merged.distinct_count, 1000);
  EXPECT_EQ(merged.min_value.int_value(), 0);
  EXPECT_EQ(merged.max_value.int_value(), 3249);
}

TEST(StatsMergeTest, OverlappingNdvBounded) {
  // Non-distribution column: every node sees the same 25 nation keys.
  std::vector<ColumnStats> parts;
  for (int node = 0; node < 4; ++node) {
    RowVector rows;
    for (int i = 0; i < 250; ++i) rows.push_back({Datum::Int(i % 25)});
    parts.push_back(ColumnStats::FromRows(rows, 0, TypeId::kInt));
  }
  ColumnStats merged = ColumnStats::Merge(parts, /*disjoint_values=*/false);
  EXPECT_EQ(merged.row_count, 1000);
  // True NDV is 25; estimate must be within [25, 100].
  EXPECT_GE(merged.distinct_count, 25);
  EXPECT_LE(merged.distinct_count, 100);
}

TEST(StatsMergeTest, TableStatsMerge) {
  std::vector<TableStats> parts;
  for (int node = 0; node < 2; ++node) {
    RowVector rows;
    for (int i = 0; i < 100; ++i) {
      rows.push_back({Datum::Int(node * 100 + i), Datum::Int(i % 5)});
    }
    TableStats ts;
    ts.row_count = 100;
    ts.avg_row_width = 16;
    ts.columns["key"] = ColumnStats::FromRows(rows, 0, TypeId::kInt);
    ts.columns["grp"] = ColumnStats::FromRows(rows, 1, TypeId::kInt);
    parts.push_back(std::move(ts));
  }
  TableStats merged = TableStats::Merge(parts, "key");
  EXPECT_EQ(merged.row_count, 200);
  EXPECT_EQ(merged.columns["key"].distinct_count, 200);  // disjoint: exact
  EXPECT_LE(merged.columns["grp"].distinct_count, 10);   // overlapping
}

// ---------------------------------------------------------------------------
// Incremental statistics: every sketch-derived statistic must equal the
// row-path oracle (ColumnStats::FromRows) field for field.

TEST(HistogramTest, BuildIsFromRunsOverSortedRuns) {
  std::vector<double> values = {3, 1, 2, 2, -0.0, 0.0, 7, 7, 7, 1.5};
  std::vector<ValueRun> runs = SortedRuns(values);
  ASSERT_EQ(runs.size(), 6u);
  EXPECT_EQ(runs[0].value, -0.0);
  EXPECT_FALSE(std::signbit(runs[0].value));  // zero is canonical +0.0
  EXPECT_EQ(runs[0].count, 2u);
  EXPECT_EQ(runs[5].value, 7);
  EXPECT_EQ(runs[5].count, 3u);
  Histogram built = Histogram::Build(values, 4);
  Histogram from_runs = Histogram::FromRuns(runs, 4);
  ASSERT_EQ(built.buckets().size(), from_runs.buckets().size());
  for (size_t i = 0; i < built.buckets().size(); ++i) {
    EXPECT_EQ(built.buckets()[i].upper_bound, from_runs.buckets()[i].upper_bound);
    EXPECT_EQ(built.buckets()[i].row_count, from_runs.buckets()[i].row_count);
    EXPECT_EQ(built.buckets()[i].distinct_count,
              from_runs.buckets()[i].distinct_count);
  }
}

void ExpectSameDatum(const Datum& a, const Datum& b) {
  EXPECT_EQ(a.type(), b.type());
  EXPECT_EQ(a.Compare(b), 0) << a.ToString() << " vs " << b.ToString();
  if (a.type() == TypeId::kDouble && b.type() == TypeId::kDouble) {
    EXPECT_EQ(std::signbit(a.double_value()), std::signbit(b.double_value()));
  }
}

void ExpectSameColumnStats(const ColumnStats& a, const ColumnStats& b) {
  EXPECT_EQ(a.row_count, b.row_count);
  EXPECT_EQ(a.distinct_count, b.distinct_count);
  EXPECT_EQ(a.null_count, b.null_count);
  EXPECT_EQ(a.avg_width, b.avg_width);
  ExpectSameDatum(a.min_value, b.min_value);
  ExpectSameDatum(a.max_value, b.max_value);
  const Histogram& ha = a.histogram;
  const Histogram& hb = b.histogram;
  ASSERT_EQ(ha.empty(), hb.empty());
  EXPECT_EQ(ha.min(), hb.min());
  EXPECT_EQ(ha.max(), hb.max());
  EXPECT_EQ(ha.total_rows(), hb.total_rows());
  ASSERT_EQ(ha.buckets().size(), hb.buckets().size());
  for (size_t i = 0; i < ha.buckets().size(); ++i) {
    SCOPED_TRACE("bucket " + std::to_string(i));
    EXPECT_EQ(ha.buckets()[i].upper_bound, hb.buckets()[i].upper_bound);
    EXPECT_EQ(ha.buckets()[i].row_count, hb.buckets()[i].row_count);
    EXPECT_EQ(ha.buckets()[i].distinct_count, hb.buckets()[i].distinct_count);
  }
}

void ExpectSameTableStats(const TableStats& a, const TableStats& b) {
  EXPECT_EQ(a.row_count, b.row_count);
  EXPECT_EQ(a.avg_row_width, b.avg_row_width);
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (const auto& [name, cs] : a.columns) {
    SCOPED_TRACE("column " + name);
    auto it = b.columns.find(name);
    ASSERT_NE(it, b.columns.end());
    ExpectSameColumnStats(cs, it->second);
  }
}

/// The full-recompute oracle: FromRows over every stored row.
TableStats OracleStats(const LocalEngine& engine, const std::string& table) {
  const TableDef* def = engine.catalog().GetTable(table).ValueOrDie();
  const RowVector& rows = *engine.GetRows(table).ValueOrDie();
  TableStats stats;
  stats.row_count = static_cast<double>(rows.size());
  double width = 0;
  for (const Row& r : rows) width += RowWidth(r);
  stats.avg_row_width = rows.empty() ? 0 : width / stats.row_count;
  for (int i = 0; i < def->schema.num_columns(); ++i) {
    const ColumnDef& col = def->schema.column(i);
    stats.columns[ToLower(col.name)] =
        ColumnStats::FromRows(rows, i, col.type, 32);
  }
  return stats;
}

/// Every type, NULL-heavy and duplicate-heavy columns, integral doubles
/// and signed zeros; `promoted` is an INT column that receives a DOUBLE
/// and a VARCHAR value once `promote` is set (variant storage).
TableDef SketchTable() {
  TableDef def;
  def.name = "t";
  def.schema = Schema({{"i", TypeId::kInt, true},
                       {"d", TypeId::kDouble, true},
                       {"s", TypeId::kVarchar, true},
                       {"dt", TypeId::kDate, true},
                       {"b", TypeId::kBool, true},
                       {"mostly_null", TypeId::kDouble, true},
                       {"dup", TypeId::kInt, true},
                       {"promoted", TypeId::kInt, true}});
  return def;
}

RowVector SketchRows(std::mt19937_64* rng, int n, bool promote) {
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(*rng);
  };
  RowVector rows;
  for (int r = 0; r < n; ++r) {
    Row row;
    row.push_back(pick(0, 9) == 0 ? Datum::Null()
                                  : Datum::Int(pick(-50, 1000)));
    switch (pick(0, 5)) {
      case 0:
        row.push_back(Datum::Double(-0.0));
        break;
      case 1:
        row.push_back(Datum::Double(0.0));
        break;
      case 2:
        row.push_back(Datum::Double(pick(-20, 20)));  // integral double
        break;
      case 3:
        row.push_back(Datum::Null());
        break;
      default:
        row.push_back(Datum::Double(pick(-1000, 1000) / 7.0));
    }
    row.push_back(pick(0, 7) == 0
                      ? Datum::Null()
                      : Datum::Varchar("v" + std::to_string(pick(0, 300))));
    row.push_back(Datum::Date(pick(8000, 8100)));
    row.push_back(pick(0, 4) == 0 ? Datum::Null() : Datum::Bool(pick(0, 1)));
    // Mostly NULL; its minimum is a signed zero, so which of -0.0 and
    // 0.0 came first decides min_value.
    const double sparse[] = {-0.0, 0.0, 0.5, 1.5};
    row.push_back(pick(0, 19) == 0 ? Datum::Double(sparse[pick(0, 3)])
                                   : Datum::Null());
    row.push_back(Datum::Int(pick(0, 9) < 8 ? 7 : pick(0, 3)));
    Datum p = Datum::Int(pick(0, 40));
    if (promote) {
      int k = pick(0, 9);
      if (k == 0) p = Datum::Double(pick(0, 40) + 0.5);
      if (k == 1) p = Datum::Double(pick(0, 40));  // equal to an INT value
      if (k == 2) p = Datum::Varchar("x" + std::to_string(pick(0, 5)));
      if (k == 3) p = Datum::Null();
    }
    row.push_back(p);
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(StatsSketchTest, SeededAppendsMatchFullRecompute) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    LocalEngine engine;
    ASSERT_TRUE(engine.CreateTable(SketchTable()).ok());
    // An empty table, then appends of varied sizes: a single row, an
    // empty append, and the promotion of "promoted" to variant midway.
    const int sizes[] = {0, 1, 300, 0, 17, 250, 2, 400, 0, 90};
    for (size_t k = 0; k < std::size(sizes); ++k) {
      SCOPED_TRACE("append " + std::to_string(k));
      ASSERT_TRUE(
          engine.InsertRows("t", SketchRows(&rng, sizes[k], k >= 5)).ok());
      auto stats = engine.ComputeLocalStats("t");
      ASSERT_TRUE(stats.ok());
      ExpectSameTableStats(*stats, OracleStats(engine, "t"));
      if (k == 6) {
        // A second call with nothing appended derives the same stats.
        ExpectSameTableStats(*engine.ComputeLocalStats("t"), *stats);
      }
    }
    // Several appends folded at once.
    ASSERT_TRUE(engine.InsertRows("t", SketchRows(&rng, 60, true)).ok());
    ASSERT_TRUE(engine.InsertRows("t", SketchRows(&rng, 70, true)).ok());
    ExpectSameTableStats(*engine.ComputeLocalStats("t"),
                         OracleStats(engine, "t"));

    // DROP + CREATE on the same name starts a fresh sketch.
    ASSERT_TRUE(engine.DropTable("t").ok());
    ASSERT_TRUE(engine.CreateTable(SketchTable()).ok());
    ExpectSameTableStats(*engine.ComputeLocalStats("t"),
                         OracleStats(engine, "t"));
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(engine.InsertRows("t", SketchRows(&rng, 50, k > 0)).ok());
      ExpectSameTableStats(*engine.ComputeLocalStats("t"),
                           OracleStats(engine, "t"));
    }
  }
}

TEST(StatsSketchTest, MemoryPerDistinctValue) {
  static_assert(sizeof(ValueRun) == 16, "16 B per distinct numeric value");
  static_assert(sizeof(size_t) == 8, "8 B per distinct hash");
  // One exact-size fold: 1000 distinct INTs cost one hash and one run each.
  ColumnBatch batch({TypeId::kInt});
  RowVector rows;
  for (int i = 0; i < 1000; ++i) rows.push_back({Datum::Int(i * 3)});
  AppendRowsToBatch(rows, 0, rows.size(), {0}, &batch);
  StatsSketch sketch;
  sketch.Fold(batch);
  EXPECT_EQ(sketch.rows(), 1000u);
  size_t per_column = sketch.MemoryBytes() - 1000 * (8 + 16);
  EXPECT_LT(per_column, 512u);
}

/// Per-node stats equal the oracle on each node's rows, and the shell's
/// global stats equal TableStats::Merge of those oracle parts (node 0's
/// alone for a replicated table).
void ExpectApplianceStatsMatchOracle(const Appliance& a,
                                     const std::string& table) {
  SCOPED_TRACE("table " + table);
  const TableDef* def = a.shell().GetTable(table).ValueOrDie();
  std::vector<TableStats> parts;
  for (int n = 0; n < a.num_compute_nodes(); ++n) {
    parts.push_back(OracleStats(a.compute_node(n), table));
  }
  if (def->distribution.is_replicated()) {
    ExpectSameTableStats(def->stats, parts[0]);
  } else {
    ExpectSameTableStats(
        def->stats,
        TableStats::Merge(parts, ToLower(def->distribution.columns[0])));
  }
}

/// TPC-H at SF 0.2 on 8 nodes; orders and lineitem arrive in `appends`
/// LoadRows calls each, the other tables in one.
std::unique_ptr<Appliance> TpchInAppends(int appends) {
  auto a = std::make_unique<Appliance>(Topology{8});
  EXPECT_TRUE(tpch::CreateTpchTables(a.get()).ok());
  tpch::TpchConfig cfg;
  cfg.scale = 0.2;
  EXPECT_TRUE(a->LoadRows("region", tpch::GenerateRegion(cfg)).ok());
  EXPECT_TRUE(a->LoadRows("nation", tpch::GenerateNation(cfg)).ok());
  EXPECT_TRUE(a->LoadRows("supplier", tpch::GenerateSupplier(cfg)).ok());
  EXPECT_TRUE(a->LoadRows("customer", tpch::GenerateCustomer(cfg)).ok());
  EXPECT_TRUE(a->LoadRows("part", tpch::GeneratePart(cfg)).ok());
  EXPECT_TRUE(a->LoadRows("partsupp", tpch::GeneratePartsupp(cfg)).ok());
  RowVector orders = tpch::GenerateOrders(cfg);
  RowVector lineitem = tpch::GenerateLineitem(cfg);
  auto chunk = [&](const RowVector& rows, int k) {
    size_t lo = rows.size() * static_cast<size_t>(k) / appends;
    size_t hi = rows.size() * static_cast<size_t>(k + 1) / appends;
    return RowVector(rows.begin() + static_cast<std::ptrdiff_t>(lo),
                     rows.begin() + static_cast<std::ptrdiff_t>(hi));
  };
  for (int k = 0; k < appends; ++k) {
    EXPECT_TRUE(a->LoadRows("orders", chunk(orders, k)).ok());
    EXPECT_TRUE(a->LoadRows("lineitem", chunk(lineitem, k)).ok());
    if (k == 0 || k == appends - 1) {
      ExpectApplianceStatsMatchOracle(*a, "orders");
      ExpectApplianceStatsMatchOracle(*a, "lineitem");
    }
  }
  for (const char* t : {"region", "nation", "supplier", "customer", "part",
                        "partsupp"}) {
    ExpectApplianceStatsMatchOracle(*a, t);
  }
  return a;
}

TEST(StatsSketchTest, AppendedTpchPlansEqualOneShotLoad) {
  std::unique_ptr<Appliance> appended = TpchInAppends(8);
  std::unique_ptr<Appliance> one_shot = TpchInAppends(1);
  for (const char* t : {"orders", "lineitem"}) {
    SCOPED_TRACE(t);
    ExpectSameTableStats(appended->shell().GetTable(t).ValueOrDie()->stats,
                         one_shot->shell().GetTable(t).ValueOrDie()->stats);
  }
  for (const tpch::TpchQuery& q : tpch::Queries()) {
    SCOPED_TRACE(q.name);
    auto ra = appended->Run(q.sql);
    auto rb = one_shot->Run(q.sql);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    EXPECT_EQ(ra->dsql.ToString(), rb->dsql.ToString());
    EXPECT_EQ(ra->dms_metrics.network.bytes, rb->dms_metrics.network.bytes);
    EXPECT_TRUE(RowSetsEqual(ra->rows, rb->rows));
  }
}

}  // namespace
}  // namespace pdw
