#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/datum.h"
#include "tpch/tpch.h"

namespace pdwbench {

namespace {

using pdw::Datum;

int32_t Day(const char* text) { return *pdw::ParseDate(text); }

std::string DateLit(int32_t day) { return "DATE '" + pdw::FormatDate(day) + "'"; }

template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[1536];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                           "MACHINERY"};
const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                          "MIDDLE EAST"};
const char* kNations[] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const char* kShipmodes[] = {"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP",
                            "TRUCK"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kPartAdjectives[] = {"forest", "ghost", "misty", "frosted",
                                 "antique", "burnished", "dim", "lemon",
                                 "pale", "royal"};
const char* kTypeSuffixes[] = {"BRUSHED", "POLISHED", "PLATED", "BURNISHED",
                               "ANODIZED"};

}  // namespace

std::vector<std::string> TpchStatements() {
  std::vector<std::string> out;
  for (const auto& q : pdw::tpch::Queries()) out.push_back(q.sql);
  return out;
}

std::vector<std::string> OrdersLineitemStatements() {
  std::vector<std::string> out;
  for (const auto& q : pdw::tpch::Queries()) {
    if (q.name != "Q2") out.push_back(q.sql);
  }
  return out;
}

std::vector<std::string> SessionMixStatements() {
  return {
      // Repeated dashboard statements: scans, aggregations, joins.
      "SELECT c_custkey, c_name FROM customer WHERE c_acctbal > 5000",
      "SELECT o_custkey, COUNT(*) AS c, SUM(o_totalprice) AS s FROM orders "
      "GROUP BY o_custkey",
      "SELECT c_name, o_totalprice FROM customer, orders "
      "WHERE c_custkey = o_custkey AND o_totalprice > 200000",
      "SELECT COUNT(*) AS c FROM lineitem, orders "
      "WHERE l_orderkey = o_orderkey",
      "SELECT l_returnflag, AVG(l_quantity) AS aq FROM lineitem "
      "GROUP BY l_returnflag",
      "SELECT n_name, COUNT(*) AS c FROM supplier, nation "
      "WHERE s_nationkey = n_nationkey GROUP BY n_name",
      // Texts over the same customer-orders and supplier-nation moves: the
      // sub-plan sharing profile.
      "SELECT c_nationkey, COUNT(*) AS cnt FROM customer, orders "
      "WHERE c_custkey = o_custkey GROUP BY c_nationkey",
      "SELECT c_nationkey, COUNT(*) AS cnt FROM customer, orders "
      "WHERE c_custkey = o_custkey GROUP BY c_nationkey ORDER BY c_nationkey",
      "SELECT c_nationkey, COUNT(*) AS cnt FROM customer, orders "
      "WHERE c_custkey = o_custkey GROUP BY c_nationkey ORDER BY cnt, "
      "c_nationkey",
      "SELECT n_name, COUNT(*) AS c FROM supplier, nation "
      "WHERE s_nationkey = n_nationkey GROUP BY n_name",
      "SELECT n_name, COUNT(*) AS c FROM supplier, nation "
      "WHERE s_nationkey = n_nationkey GROUP BY n_name ORDER BY c, n_name",
      "SELECT c_nationkey FROM customer, orders WHERE c_custkey = o_custkey "
      "AND c_nationkey > 5 UNION ALL "
      "SELECT c_nationkey FROM customer, orders WHERE c_custkey = o_custkey "
      "AND c_nationkey > 5",
  };
}

std::string AdhocGenerator::Draw(int t) {
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  };
  // A start day drawn uniformly from [from, to].
  auto day = [&](const char* from, const char* to) {
    return pick(Day(from), Day(to));
  };
  switch (t) {
    case 0:  // Q1: DELTA days before 1998-12-01.
      return Format(
          "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
          "SUM(l_extendedprice) AS sum_base_price, "
          "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
          "AVG(l_quantity) AS avg_qty, AVG(l_discount) AS avg_disc, "
          "COUNT(*) AS count_order "
          "FROM lineitem WHERE l_shipdate <= %s "
          "GROUP BY l_returnflag, l_linestatus "
          "ORDER BY l_returnflag, l_linestatus",
          DateLit(Day("1998-12-01") - pick(60, 790)).c_str());
    case 1: {  // Q2: SIZE range and TYPE suffix.
      int size = pick(1, 50);
      int width = pick(0, 4);
      const char* suffix = kTypeSuffixes[pick(0, 4)];
      return Format(
          "SELECT s_name, p_partkey, ps_supplycost FROM part, supplier, "
          "partsupp WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey "
          "AND p_size BETWEEN %d AND %d AND p_type LIKE '%%%s' "
          "AND ps_supplycost = (SELECT MIN(ps2.ps_supplycost) FROM partsupp "
          "ps2 WHERE ps2.ps_partkey = p_partkey) "
          "ORDER BY s_name, p_partkey",
          size, size + width, suffix);
    }
    case 2: {  // Q3: SEGMENT and DATE.
      std::string d = DateLit(day("1994-10-01", "1995-08-01"));
      return Format(
          "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS "
          "revenue, o_orderdate, o_shippriority "
          "FROM customer, orders, lineitem "
          "WHERE c_mktsegment = '%s' AND c_custkey = o_custkey "
          "AND l_orderkey = o_orderkey AND o_orderdate < %s "
          "AND l_shipdate > %s "
          "GROUP BY l_orderkey, o_orderdate, o_shippriority "
          "ORDER BY revenue DESC, o_orderdate LIMIT 10",
          kSegments[pick(0, 4)], d.c_str(), d.c_str());
    }
    case 3: {  // Q4: a three-month window.
      int32_t d = day("1993-01-01", "1997-10-01");
      return Format(
          "SELECT o_orderpriority, COUNT(*) AS order_count FROM orders "
          "WHERE o_orderdate >= %s AND o_orderdate < %s "
          "AND EXISTS (SELECT l_orderkey FROM lineitem "
          "  WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate) "
          "GROUP BY o_orderpriority ORDER BY o_orderpriority",
          DateLit(d).c_str(), DateLit(d + 92).c_str());
    }
    case 4: {  // Q5: REGION and a one-year window.
      int32_t d = day("1993-01-01", "1997-01-01");
      return Format(
          "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
          "FROM customer, orders, lineitem, supplier, nation, region "
          "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
          "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
          "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
          "AND r_name = '%s' AND o_orderdate >= %s AND o_orderdate < %s "
          "GROUP BY n_name ORDER BY revenue DESC",
          kRegions[pick(0, 4)], DateLit(d).c_str(), DateLit(d + 365).c_str());
    }
    case 5: {  // Q6: a one-year window, DISCOUNT and QUANTITY.
      int32_t d = day("1993-01-01", "1997-01-01");
      int disc = pick(2, 9);
      return Format(
          "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
          "WHERE l_shipdate >= %s AND l_shipdate < %s "
          "AND l_discount BETWEEN 0.%02d AND 0.%02d AND l_quantity < %d",
          DateLit(d).c_str(), DateLit(d + 365).c_str(), disc - 1, disc + 1,
          pick(24, 25));
    }
    case 6: {  // Q10: a three-month window.
      int32_t d = day("1993-01-01", "1995-01-01");
      return Format(
          "SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) "
          "AS revenue, c_acctbal, n_name, c_address "
          "FROM customer, orders, lineitem, nation "
          "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
          "AND o_orderdate >= %s AND o_orderdate < %s "
          "AND l_returnflag = 'R' AND c_nationkey = n_nationkey "
          "GROUP BY c_custkey, c_name, c_acctbal, n_name, c_address "
          "ORDER BY revenue DESC LIMIT 20",
          DateLit(d).c_str(), DateLit(d + 92).c_str());
    }
    case 7: {  // Q12: two SHIPMODEs and a one-year window.
      int a = pick(0, 6);
      int b = (a + pick(1, 6)) % 7;
      int32_t d = day("1993-01-01", "1997-01-01");
      return Format(
          "SELECT l_shipmode, "
          "SUM(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = "
          "'2-HIGH' THEN 1 ELSE 0 END) AS high_line_count, "
          "SUM(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> "
          "'2-HIGH' THEN 1 ELSE 0 END) AS low_line_count "
          "FROM orders, lineitem WHERE o_orderkey = l_orderkey "
          "AND l_shipmode IN ('%s', '%s') "
          "AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate "
          "AND l_receiptdate >= %s AND l_receiptdate < %s "
          "GROUP BY l_shipmode ORDER BY l_shipmode",
          kShipmodes[a], kShipmodes[b], DateLit(d).c_str(),
          DateLit(d + 365).c_str());
    }
    case 8: {  // Q14: a one-month window.
      int32_t d = day("1993-01-01", "1997-12-01");
      return Format(
          "SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%%' THEN "
          "l_extendedprice * (1 - l_discount) ELSE 0 END) / "
          "SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue "
          "FROM lineitem, part WHERE l_partkey = p_partkey "
          "AND l_shipdate >= %s AND l_shipdate < %s",
          DateLit(d).c_str(), DateLit(d + 30).c_str());
    }
    case 9: {  // Q17: part-name prefix and quantity factor.
      const char* prefix = kPartAdjectives[pick(0, 9)];
      double factor = 0.005 * pick(20, 80);
      return Format(
          "SELECT SUM(l_extendedprice) / 7.0 AS avg_yearly "
          "FROM lineitem, part WHERE p_partkey = l_partkey "
          "AND p_name LIKE '%s%%' "
          "AND l_quantity < (SELECT %.3f * AVG(l2.l_quantity) FROM lineitem "
          "l2 WHERE l2.l_partkey = p_partkey)",
          prefix, factor);
    }
    case 10: {  // Q18: QUANTITY threshold and row limit.
      int threshold = pick(120, 250);
      int limit = pick(50, 150);
      return Format(
          "SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, "
          "SUM(l_quantity) AS total_qty "
          "FROM customer, orders, lineitem "
          "WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem "
          "  GROUP BY l_orderkey HAVING SUM(l_quantity) > %d) "
          "AND c_custkey = o_custkey AND o_orderkey = l_orderkey "
          "GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice "
          "ORDER BY o_totalprice DESC, o_orderdate LIMIT %d",
          threshold, limit);
    }
    default: {  // Q20: COLOR prefix, a one-year window and NATION.
      const char* prefix = kPartAdjectives[pick(0, 9)];
      int32_t d = day("1993-01-01", "1997-01-01");
      const char* nation = kNations[pick(0, 24)];
      return Format(
          "SELECT s_name, s_address FROM supplier, nation "
          "WHERE s_suppkey IN ("
          "  SELECT ps_suppkey FROM partsupp WHERE ps_partkey IN ("
          "    SELECT p_partkey FROM part WHERE p_name LIKE '%s%%') "
          "  AND ps_availqty > ("
          "    SELECT 0.5 * SUM(l_quantity) FROM lineitem "
          "    WHERE l_partkey = ps_partkey AND l_suppkey = ps_suppkey "
          "    AND l_shipdate >= %s AND l_shipdate < %s)) "
          "AND s_nationkey = n_nationkey AND n_name = '%s' "
          "ORDER BY s_name",
          prefix, DateLit(d).c_str(), DateLit(d + 365).c_str(), nation);
    }
  }
}

std::vector<std::string> AdhocGenerator::NextRound() {
  constexpr int kTemplates = 12;
  constexpr int kMaxDraws = 10000;
  std::vector<int> order(kTemplates);
  for (int i = 0; i < kTemplates; ++i) order[static_cast<size_t>(i)] = i;
  std::shuffle(order.begin(), order.end(), rng_);
  std::vector<std::string> round;
  for (int t : order) {
    int draws = 0;
    std::string sql;
    do {
      if (++draws > kMaxDraws) return {};
      sql = Draw(t);
    } while (!used_.insert(sql).second);
    round.push_back(std::move(sql));
  }
  return round;
}

TpchSizes SizesAtScale(double scale) {
  auto count = [&](int base) {
    return std::max(1, static_cast<int>(base * scale));
  };
  // Base counts of the generator at scale 1.0 (see tpch.cc).
  return {count(15000), count(1500), count(2000), count(100)};
}

Append MakeAppend(const TpchSizes& sizes, int first_orderkey, uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  auto real = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const int32_t lo = Day("1992-01-01");
  const int32_t hi = Day("1998-08-02");
  const int32_t open_after = Day("1995-06-17");
  Append out;
  int n = std::max(1, sizes.orders / 100);
  for (int k = 0; k < n; ++k) {
    int key = first_orderkey + k;
    out.orders.push_back({Datum::Int(key), Datum::Int(pick(1, sizes.customers)),
                          Datum::Double(std::round(real(900, 450000) * 100) / 100),
                          Datum::Date(pick(lo, hi)),
                          Datum::Varchar(kPriorities[pick(0, 4)]),
                          Datum::Int(0)});
    int lines = pick(1, 7);
    for (int l = 1; l <= lines; ++l) {
      int32_t ship = pick(lo, hi);
      int flag = pick(0, 2);
      out.lineitem.push_back(
          {Datum::Int(key), Datum::Int(pick(1, sizes.parts)),
           Datum::Int(pick(1, sizes.suppliers)), Datum::Int(l),
           Datum::Double(pick(1, 50)),
           Datum::Double(std::round(real(900, 10000) * 100) / 100),
           Datum::Double(std::round(real(0.0, 0.10) * 100) / 100),
           Datum::Varchar(flag == 0 ? "R" : (flag == 1 ? "A" : "N")),
           Datum::Varchar(ship > open_after ? "O" : "F"), Datum::Date(ship),
           Datum::Date(ship + pick(1, 60) - 30),
           Datum::Date(ship + pick(1, 60) / 2),
           Datum::Varchar(kShipmodes[pick(0, 6)])});
    }
  }
  return out;
}

}  // namespace pdwbench
