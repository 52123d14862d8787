#ifndef PDW_ENGINE_LOCAL_ENGINE_H_
#define PDW_ENGINE_LOCAL_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "engine/batch.h"
#include "engine/executor.h"
#include "engine/stats_sketch.h"
#include "optimizer/memo.h"

namespace pdw {

namespace sql {
struct SelectStatement;
}  // namespace sql

/// Result of one SQL execution.
struct SqlResult {
  std::vector<std::string> column_names;
  std::vector<TypeId> column_types;
  RowVector rows;
};

/// Produces the current rows of a virtual table (a sys.dm_pdw_* system
/// view), matching the registered schema. Called on the querying thread at
/// scan-materialization time; must be thread-safe — concurrent DMV queries
/// invoke it simultaneously.
using VirtualTableFn = std::function<Result<RowVector>()>;

/// A SELECT compiled against one engine's catalog: the serial plan and the
/// statement's output shape. The plan is node-independent: scans name their
/// tables (PlanNode::table_name) and every executor resolves them through
/// the executing engine's GetTableData, never through the compiling
/// catalog (PrepareSelect clears PlanNode::table). So a plan prepared on
/// one engine runs on any engine whose catalog has the same tables and
/// columns — the appliance compiles each DSQL step once and executes it on
/// every source node.
///
/// Thread safety: immutable once PrepareSelect returns. Any number of
/// threads may run one PreparedSelect through ExecutePrepared at once, on
/// one engine or many, including their morsel helpers: execution only
/// reads the plan and its shared scalar expressions, and builds all
/// per-run state (expression programs, hash tables) privately.
struct PreparedSelect {
  PlanNodePtr plan;
  std::vector<std::string> output_names;
  /// Leading output columns the client sees; the rest carry hidden ORDER
  /// BY keys (see BoundQuery::visible_columns). -1 = all visible.
  int visible_columns = -1;
};

/// A complete single-node SQL engine: catalog + in-memory row storage +
/// parse/bind/normalize/optimize/execute pipeline. One instance runs on
/// each compute node (and on the control node) of the appliance simulator,
/// standing in for the per-node SQL Server of Fig. 1. The DSQL executor
/// feeds it the *generated SQL text*, so DSQL SQL generation is exercised
/// on the real execution path.
///
/// Thread safety: concurrent ExecuteSql / PrepareSelect / ExecutePrepared
/// calls are safe, as is DDL on
/// *distinct* tables concurrent with queries — the case parallel DSQL
/// execution needs, where each in-flight query creates, fills and drops
/// its own uniquely-named temp tables. The storage map's structure is
/// guarded by a shared_mutex; row vectors of individual tables are not
/// independently locked, so loading rows into a table while another thread
/// queries that same table is not supported (loads are a setup-time
/// operation, as on the real appliance which takes table locks).
class LocalEngine : public TableProvider {
 public:
  /// Every engine owns a built-in zero-row table `pdw_empty` that the SQL
  /// generator uses to render contradiction (Empty) subtrees.
  LocalEngine();

  /// DDL / storage.
  Status CreateTable(TableDef def);
  Status DropTable(const std::string& name);
  /// Registers a virtual table: `def` enters the catalog (marked
  /// is_system_view) so binding and optimization see an ordinary leaf, but
  /// no rows are stored — each SELECT touching it calls `fn` once and scans
  /// the materialized snapshot (row vector + columnar mirror, so both
  /// engines work). Registration is setup-time; queries afterwards are
  /// fully concurrent.
  Status RegisterVirtualTable(TableDef def, VirtualTableFn fn);
  Status InsertRows(const std::string& name, RowVector rows);
  bool HasTable(const std::string& name) const { return catalog_.HasTable(name); }
  Result<const RowVector*> GetRows(const std::string& name) const;
  const Catalog& catalog() const { return catalog_; }

  /// The local statistics of a table's stored rows (the per-node half of
  /// the shell database's global-statistics story, §2.2). Folds the rows
  /// appended since the previous call into the table's StatsSketch, then
  /// derives the statistics from it — equal field for field to
  /// ColumnStats::FromRows over every stored row. The fold mutates the
  /// sketch, so this call is a writer of the table: like InsertRows, it
  /// must not run concurrently with another writer of the same table
  /// (other tables, and queries, are unaffected).
  Result<TableStats> ComputeLocalStats(const std::string& name,
                                       int histogram_buckets = 32);

  /// Executes a SELECT (or CREATE TABLE / DROP TABLE / INSERT) statement;
  /// a SELECT is PrepareSelect + ExecutePrepared. A non-null `profile`
  /// collects per-operator actual row counts and timings of the SELECT's
  /// plan (EXPLAIN ANALYZE support). `exec` picks the execution engine (row
  /// reference vs vectorized batch) and its batch-size / parallelism knobs.
  Result<SqlResult> ExecuteSql(const std::string& sql,
                               ExecProfile* profile = nullptr,
                               const ExecOptions& exec = {});

  /// The local compile of a SELECT: parse, bind, normalize, memo
  /// exploration and serial plan extraction against this engine's catalog.
  /// Returns null (and executes nothing) for DDL and INSERT. Counts
  /// `engine.local_compiles`.
  Result<std::shared_ptr<const PreparedSelect>> PrepareSelect(
      const std::string& sql) const;

  /// Runs a prepared SELECT against this engine's storage: virtual tables
  /// it scans are materialized for this run, and hidden ORDER BY carrier
  /// columns are trimmed from the result. `profile`/`exec` as ExecuteSql.
  Result<SqlResult> ExecutePrepared(const PreparedSelect& prepared,
                                    ExecProfile* profile = nullptr,
                                    const ExecOptions& exec = {}) const;

  // TableProvider:
  Result<TableData> GetTableData(const std::string& name) const override;

 private:
  /// One table's storage: the authoritative row vector plus a columnar
  /// mirror of the same rows (one contiguous batch), maintained at load
  /// time so batch-engine scans slice column vectors instead of
  /// converting rows on every query. Appends grow the mirror's vectors
  /// geometrically, never copying the whole table per load. The
  /// statistics sketch covers the mirror's first sketch.rows() rows; it is
  /// folded forward lazily by ComputeLocalStats, so tables whose
  /// statistics are never asked for (temp tables) never pay for it.
  /// CreateTable and DropTable reset it with the table.
  struct StoredTable {
    RowVector rows;
    ColumnTable columns;
    StatsSketch sketch;
  };

  mutable std::shared_mutex mu_;  ///< Guards the structure of storage_.
  Catalog catalog_;
  std::map<std::string, StoredTable> storage_;  // keyed by lowercase name
  std::map<std::string, VirtualTableFn> virtual_;  // keyed by lowercase name

  /// PrepareSelect for an already-parsed SELECT statement.
  Result<std::shared_ptr<const PreparedSelect>> Prepare(
      const sql::SelectStatement& select) const;
};

}  // namespace pdw

#endif  // PDW_ENGINE_LOCAL_ENGINE_H_
