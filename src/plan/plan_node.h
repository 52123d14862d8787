#ifndef PDW_PLAN_PLAN_NODE_H_
#define PDW_PLAN_PLAN_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/logical_op.h"
#include "plan/distribution.h"

namespace pdw {

/// Physical operator kinds. Serial plans use everything except kMove and
/// kTempScan; parallel (PDW) plans additionally contain kMove boundaries
/// which the DSQL generator turns into DMS steps + temp tables.
enum class PhysOpKind {
  kTableScan,
  kTempScan,   ///< Scan of a DSQL temp table produced by an earlier step.
  kEmpty,
  kFilter,
  kProject,
  kHashJoin,
  kNestedLoopJoin,
  kHashAggregate,
  kSort,
  kLimit,
  kUnionAll,   ///< Bag union; children align positionally via union_inputs.
  kMove,       ///< Data movement (DMS) boundary; child is the source.
};

const char* PhysOpKindToString(PhysOpKind kind);

/// Aggregation phase for distributed local/global splits (paper §4, the
/// Q20 "LocalGB / GlobalGB" pattern).
enum class AggPhase { kFull, kLocal, kGlobal };

/// A physical plan node. One concrete struct (rather than a class
/// hierarchy) keeps the executor, the SQL generator and the plan printers
/// simple; unused fields stay empty for a given kind.
struct PlanNode {
  PhysOpKind kind = PhysOpKind::kTableScan;
  std::vector<std::unique_ptr<PlanNode>> children;

  /// Output columns of this node, in row order.
  std::vector<ColumnBinding> output;

  /// Estimated global row count / average row width (bytes) — the Y and w
  /// of the paper's cost formulas.
  double cardinality = 0;
  double row_width = 0;

  /// Distribution of the node's output across the appliance.
  DistributionProperty distribution;

  // --- kTableScan / kTempScan ---
  /// What executors scan: they resolve the name through the executing
  /// engine's TableProvider, so a plan is not tied to the catalog it was
  /// compiled against.
  std::string table_name;
  /// The compiling catalog's entry, for optimizer-side use only. No
  /// executor reads it; LocalEngine::PrepareSelect clears it, so one
  /// prepared plan runs on every node.
  const TableDef* table = nullptr;

  // --- kFilter, and residual/ON conditions of joins ---
  std::vector<ScalarExprPtr> conjuncts;

  // --- joins ---
  LogicalJoinType join_type = LogicalJoinType::kInner;
  /// Extracted equi-key pairs (left column, right column).
  std::vector<std::pair<ColumnId, ColumnId>> equi_keys;

  // --- kProject ---
  std::vector<ProjectItem> items;

  // --- kHashAggregate ---
  std::vector<ColumnId> group_by;
  std::vector<AggregateItem> aggregates;
  AggPhase agg_phase = AggPhase::kFull;

  // --- kSort / kLimit ---
  std::vector<SortItem> sort_items;
  int64_t limit = -1;

  // --- kUnionAll ---
  /// Per child: the child column id feeding each output position.
  std::vector<std::vector<ColumnId>> union_inputs;

  // --- kMove ---
  DmsOpKind move_kind = DmsOpKind::kShuffle;
  std::vector<ColumnId> shuffle_columns;  ///< Hash columns for shuffles/trims.
  double move_cost = 0;  ///< Modeled DMS cost of this move alone.

  /// Deep copy.
  std::unique_ptr<PlanNode> Clone() const;

  /// One-line operator description.
  std::string ToString() const;
};

using PlanNodePtr = std::unique_ptr<PlanNode>;

/// Indented multi-line EXPLAIN rendering with distributions and estimates.
std::string PlanTreeToString(const PlanNode& root);

/// Sum of `move_cost` over all kMove nodes — the plan's total modeled DMS
/// cost (the PDW optimizer's objective, §3.3).
double TotalMoveCost(const PlanNode& root);

/// Number of kMove nodes (== number of DMS steps the DSQL plan will have).
int CountMoves(const PlanNode& root);

}  // namespace pdw

#endif  // PDW_PLAN_PLAN_NODE_H_
