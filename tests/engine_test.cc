#include <gtest/gtest.h>

#include <algorithm>

#include "engine/local_engine.h"

namespace pdw {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .ExecuteSql(
                        "CREATE TABLE t (id INT, grp INT, v DOUBLE, "
                        "name VARCHAR(20), d DATE)")
                    .ok());
    ASSERT_TRUE(engine_
                    .ExecuteSql(
                        "INSERT INTO t VALUES "
                        "(1, 1, 10.5, 'alpha', '1994-01-01'), "
                        "(2, 1, 20.0, 'beta', '1994-06-01'), "
                        "(3, 2, 30.0, 'gamma', '1995-01-01'), "
                        "(4, 2, NULL, 'delta', '1995-06-01'), "
                        "(5, NULL, 50.0, 'epsilon', '1996-01-01')")
                    .ok());
  }

  RowVector Run(const std::string& sql) {
    auto r = engine_.ExecuteSql(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? r->rows : RowVector{};
  }

  LocalEngine engine_;
};

TEST_F(EngineTest, ScanAndFilter) {
  EXPECT_EQ(Run("SELECT id FROM t").size(), 5u);
  EXPECT_EQ(Run("SELECT id FROM t WHERE grp = 1").size(), 2u);
  EXPECT_EQ(Run("SELECT id FROM t WHERE v > 15 AND v < 45").size(), 2u);
  // NULL never satisfies a comparison.
  EXPECT_EQ(Run("SELECT id FROM t WHERE v <> 10.5").size(), 3u);
}

TEST_F(EngineTest, IsNullPredicates) {
  EXPECT_EQ(Run("SELECT id FROM t WHERE v IS NULL").size(), 1u);
  EXPECT_EQ(Run("SELECT id FROM t WHERE grp IS NOT NULL").size(), 4u);
}

TEST_F(EngineTest, ProjectionExpressions) {
  RowVector rows = Run("SELECT id * 2 + 1 AS x FROM t WHERE id = 3");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int_value(), 7);
}

TEST_F(EngineTest, LikeAndStrings) {
  EXPECT_EQ(Run("SELECT id FROM t WHERE name LIKE '%a'").size(), 4u);
  EXPECT_EQ(Run("SELECT id FROM t WHERE name LIKE 'a%'").size(), 1u);
  EXPECT_EQ(Run("SELECT id FROM t WHERE name NOT LIKE '%a'").size(), 1u);
}

TEST_F(EngineTest, DateComparisons) {
  EXPECT_EQ(Run("SELECT id FROM t WHERE d >= DATE '1995-01-01'").size(), 3u);
  EXPECT_EQ(
      Run("SELECT id FROM t WHERE d < DATEADD(year, 1, '1994-06-01')").size(),
      3u);
}

TEST_F(EngineTest, AggregatesWithNulls) {
  RowVector rows =
      Run("SELECT COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) FROM t");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int_value(), 5);   // COUNT(*) counts NULLs
  EXPECT_EQ(rows[0][1].int_value(), 4);   // COUNT(v) does not
  EXPECT_DOUBLE_EQ(rows[0][2].AsDouble(), 110.5);
  EXPECT_DOUBLE_EQ(rows[0][3].AsDouble(), 10.5);
  EXPECT_DOUBLE_EQ(rows[0][4].AsDouble(), 50.0);
  EXPECT_NEAR(rows[0][5].AsDouble(), 110.5 / 4, 1e-9);
}

TEST_F(EngineTest, GroupByIncludesNullGroup) {
  RowVector rows = Run("SELECT grp, COUNT(*) FROM t GROUP BY grp");
  EXPECT_EQ(rows.size(), 3u);  // groups 1, 2, NULL
}

TEST_F(EngineTest, ScalarAggregateOverEmptyInput) {
  RowVector rows = Run("SELECT COUNT(*), SUM(v) FROM t WHERE id > 100");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int_value(), 0);
  EXPECT_TRUE(rows[0][1].is_null());
}

TEST_F(EngineTest, GroupedAggregateOverEmptyInputIsEmpty) {
  EXPECT_EQ(Run("SELECT grp, COUNT(*) FROM t WHERE id > 100 GROUP BY grp").size(),
            0u);
}

TEST_F(EngineTest, DistinctAggregate) {
  ASSERT_TRUE(engine_.ExecuteSql("INSERT INTO t VALUES (6, 1, 10.5, 'zeta', "
                                 "'1994-01-01')")
                  .ok());
  RowVector rows = Run("SELECT COUNT(DISTINCT v) FROM t");
  EXPECT_EQ(rows[0][0].int_value(), 4);  // 10.5, 20, 30, 50
}

TEST_F(EngineTest, SelectDistinct) {
  EXPECT_EQ(Run("SELECT DISTINCT grp FROM t").size(), 3u);
}

TEST_F(EngineTest, OrderByAndLimit) {
  RowVector rows = Run("SELECT id FROM t ORDER BY v DESC LIMIT 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].int_value(), 5);
  EXPECT_EQ(rows[1][0].int_value(), 3);
  // NULLs sort first ascending.
  rows = Run("SELECT id FROM t ORDER BY v LIMIT 1");
  EXPECT_EQ(rows[0][0].int_value(), 4);
}

TEST_F(EngineTest, CaseExpression) {
  RowVector rows = Run(
      "SELECT id, CASE WHEN v > 25 THEN 'big' WHEN v > 15 THEN 'mid' "
      "ELSE 'small' END AS size FROM t WHERE v IS NOT NULL ORDER BY id");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][1].string_value(), "small");
  EXPECT_EQ(rows[1][1].string_value(), "mid");
  EXPECT_EQ(rows[2][1].string_value(), "big");
}

TEST_F(EngineTest, JoinTypes) {
  ASSERT_TRUE(engine_
                  .ExecuteSql("CREATE TABLE u (uid INT, label VARCHAR(10))")
                  .ok());
  ASSERT_TRUE(engine_
                  .ExecuteSql("INSERT INTO u VALUES (1, 'one'), (2, 'two'), "
                              "(2, 'deux'), (99, 'none')")
                  .ok());
  // Inner join with duplicate matches.
  EXPECT_EQ(Run("SELECT id, label FROM t, u WHERE id = uid").size(), 3u);
  // Left join preserves unmatched left rows.
  RowVector rows = Run(
      "SELECT id, label FROM t LEFT JOIN u ON id = uid ORDER BY id");
  EXPECT_EQ(rows.size(), 6u);  // 5 t-rows, id=2 doubled
  bool found_null = false;
  for (const Row& r : rows) {
    if (r[1].is_null()) found_null = true;
  }
  EXPECT_TRUE(found_null);
  // Semi via IN.
  EXPECT_EQ(Run("SELECT id FROM t WHERE id IN (SELECT uid FROM u)").size(), 2u);
  // Anti via NOT IN.
  EXPECT_EQ(Run("SELECT id FROM t WHERE id NOT IN (SELECT uid FROM u)").size(),
            3u);
  // EXISTS with correlation.
  EXPECT_EQ(Run("SELECT id FROM t WHERE EXISTS "
                "(SELECT uid FROM u WHERE uid = id)")
                .size(),
            2u);
}

TEST_F(EngineTest, CrossJoin) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE tiny (x INT)").ok());
  ASSERT_TRUE(engine_.ExecuteSql("INSERT INTO tiny VALUES (10), (20)").ok());
  EXPECT_EQ(Run("SELECT id, x FROM t CROSS JOIN tiny").size(), 10u);
}

TEST_F(EngineTest, DerivedTable) {
  RowVector rows = Run(
      "SELECT s.grp, s.total FROM "
      "(SELECT grp, SUM(v) AS total FROM t GROUP BY grp) AS s "
      "WHERE s.total > 25 ORDER BY s.grp");
  // grp=1 sums 30.5, grp=2 sums 30, grp=NULL sums 50: all exceed 25.
  ASSERT_EQ(rows.size(), 3u);
}

TEST_F(EngineTest, HavingClause) {
  RowVector rows =
      Run("SELECT grp, COUNT(*) FROM t GROUP BY grp HAVING COUNT(*) >= 2");
  EXPECT_EQ(rows.size(), 2u);
}

TEST_F(EngineTest, InsertValidation) {
  EXPECT_FALSE(engine_.ExecuteSql("INSERT INTO t VALUES (1, 2)").ok());
  EXPECT_FALSE(engine_.ExecuteSql("INSERT INTO missing VALUES (1)").ok());
}

TEST_F(EngineTest, DivisionByZeroFailsExecution) {
  auto r = engine_.ExecuteSql("SELECT id / 0 FROM t");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
}

TEST_F(EngineTest, DropTable) {
  ASSERT_TRUE(engine_.ExecuteSql("CREATE TABLE tmp (a INT)").ok());
  ASSERT_TRUE(engine_.ExecuteSql("DROP TABLE tmp").ok());
  EXPECT_FALSE(engine_.ExecuteSql("SELECT a FROM tmp").ok());
}

TEST_F(EngineTest, LocalStatsComputation) {
  auto stats = engine_.ComputeLocalStats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->row_count, 5);
  EXPECT_EQ(stats->columns.at("id").distinct_count, 5);
  EXPECT_EQ(stats->columns.at("v").null_count, 1);
}

TEST(ColumnVectorTest, FirstAppendReservesExactly) {
  RowVector rows;
  for (int i = 0; i < 10; ++i) rows.push_back({Datum::Int(i)});
  ColumnVector v(TypeId::kInt);
  v.AppendRowsColumn(rows, 0, rows.size(), 0);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_EQ(v.capacity(), 10u);
}

TEST(ColumnVectorTest, SingleRowAppendsReallocateLogarithmically) {
  // Appending one row at a time must grow capacity geometrically, not copy
  // the whole column on every append.
  RowVector one = {{Datum::Varchar("x")}};
  ColumnVector v(TypeId::kVarchar);
  int reallocations = 0;
  size_t capacity = v.capacity();
  for (int i = 0; i < 1000; ++i) {
    v.AppendRowsColumn(one, 0, 1, 0);
    if (v.capacity() != capacity) {
      ++reallocations;
      // Growth is at most 1.5x (plus the first exact reserve).
      EXPECT_LE(v.capacity(), std::max<size_t>(capacity + capacity / 2, 2));
      capacity = v.capacity();
    }
  }
  EXPECT_EQ(v.size(), 1000u);
  // log_1.5(1000) ~ 17; a per-append exact reserve would give 1000.
  EXPECT_LE(reallocations, 20);

  // The per-element slow path of AppendRangeFrom (declared types differ,
  // so every row takes it) grows the same way.
  ColumnVector src(TypeId::kDouble);
  src.Append(Datum::Double(1.5));
  ColumnVector dst(TypeId::kInt);
  reallocations = 0;
  capacity = dst.capacity();
  for (int i = 0; i < 1000; ++i) {
    dst.AppendRangeFrom(src, 0, 1);
    if (dst.capacity() != capacity) {
      ++reallocations;
      capacity = dst.capacity();
    }
  }
  EXPECT_EQ(dst.size(), 1000u);
  EXPECT_LE(reallocations, 20);
}

}  // namespace
}  // namespace pdw
