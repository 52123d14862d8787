// Seeded inputs of the benchmark workloads: the statement texts each
// client sends and the rows each refresh append loads. The program under
// test only ever sees what these functions return.

#ifndef PDW_PERFBENCH_INPUTS_H_
#define PDW_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/row.h"

namespace pdwbench {

/// The twelve TPC-H statements of the repository's suite, verbatim.
std::vector<std::string> TpchStatements();

/// The TPC-H statements that read orders or lineitem: the ones a refresh
/// append invalidates (every suite query except Q2).
std::vector<std::string> OrdersLineitemStatements();

/// The concurrent-session mix: six repeated dashboard statements plus six
/// statements whose plans share fingerprint-equal DSQL steps (one text is
/// in both halves).
std::vector<std::string> SessionMixStatements();

/// Draws TPC-H statements with qgen-style substitution parameters (dates,
/// segments, regions, thresholds) so that no text repeats within one run:
/// every statement misses the plan cache and compiles from scratch.
class AdhocGenerator {
 public:
  explicit AdhocGenerator(uint64_t seed) : rng_(seed) {}

  /// One round: each of the twelve query templates once, in seeded order.
  /// Fails (empty result) only if a template's parameter space is spent.
  std::vector<std::string> NextRound();

  /// Marks a text as used so NextRound never returns it.
  void Reserve(const std::string& sql) { used_.insert(sql); }

 private:
  std::string Draw(int template_index);

  std::mt19937_64 rng_;
  std::set<std::string> used_;
};

/// Row counts of the TPC-H tables at a scale, as the generator makes them.
struct TpchSizes {
  int orders = 0;
  int customers = 0;
  int parts = 0;
  int suppliers = 0;
};
TpchSizes SizesAtScale(double scale);

/// One refresh append: about 1% new orders, keyed after `first_orderkey`,
/// and their lineitems, drawn like the TPC-H generator draws them.
struct Append {
  pdw::RowVector orders;
  pdw::RowVector lineitem;
};
Append MakeAppend(const TpchSizes& sizes, int first_orderkey, uint64_t seed);

}  // namespace pdwbench

#endif  // PDW_PERFBENCH_INPUTS_H_
