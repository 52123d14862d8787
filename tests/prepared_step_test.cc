// Each DSQL step's SQL is compiled once, on the step's first source node
// (LocalEngine::PrepareSelect), and every source node executes that plan
// (LocalEngine::ExecutePrepared). These tests pin down why that is sound
// and that nothing observable changed:
//  * ExecuteSql equals PrepareSelect + ExecutePrepared — rows, names,
//    types and operator actuals — on node storage and on system views;
//  * a step's plan prepared on any source node renders identically to the
//    first source node's, over the whole TPC-H suite with every temp
//    materialized, because node catalogs carry no statistics;
//  * a query compiles exactly once per step (engine.local_compiles);
//  * a step that fails to prepare fails the query as before: a typed,
//    node-wrapped Status, no TEMP litter, a drained registry.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "appliance/appliance.h"
#include "obs/metrics.h"
#include "plan/plan_node.h"
#include "tpch/tpch.h"

namespace pdw {
namespace {

std::unique_ptr<Appliance> MakeLoadedAppliance(int nodes, double scale) {
  auto appliance = std::make_unique<Appliance>(Topology{nodes});
  EXPECT_TRUE(tpch::CreateTpchTables(appliance.get()).ok());
  tpch::TpchConfig cfg;
  cfg.scale = scale;
  EXPECT_TRUE(tpch::LoadTpch(appliance.get(), cfg).ok());
  return appliance;
}

double LocalCompiles() {
  return obs::MetricsRegistry::Global().counter("engine.local_compiles");
}

LocalEngine& EngineOf(Appliance* appliance, int node) {
  return node == appliance->num_compute_nodes()
             ? appliance->mutable_control_engine()
             : appliance->mutable_compute_node(node);
}

void ExpectSameResult(const SqlResult& direct, const SqlResult& split) {
  EXPECT_EQ(direct.column_names, split.column_names);
  EXPECT_EQ(direct.column_types, split.column_types);
  ASSERT_EQ(direct.rows.size(), split.rows.size());
  for (size_t i = 0; i < direct.rows.size(); ++i) {
    EXPECT_EQ(CompareRows(direct.rows[i], split.rows[i]), 0) << "row " << i;
  }
}

// --- ExecuteSql == PrepareSelect + ExecutePrepared -------------------------

TEST(PreparedSelectTest, DdlAndInsertPrepareToNull) {
  LocalEngine engine;
  const char* statements[] = {
      "CREATE TABLE t (a INT, b VARCHAR(8))",
      "INSERT INTO t VALUES (1, 'x')",
      "DROP TABLE t",
  };
  for (const char* sql : statements) {
    SCOPED_TRACE(sql);
    double before = LocalCompiles();
    auto prepared = engine.PrepareSelect(sql);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    EXPECT_EQ(*prepared, nullptr);
    EXPECT_EQ(LocalCompiles(), before);
    // Preparing executes nothing: the CREATE above made no table.
    EXPECT_FALSE(engine.HasTable("t"));
  }
  // ExecuteSql still runs them.
  for (const char* sql : statements) {
    ASSERT_TRUE(engine.ExecuteSql(sql).ok()) << sql;
  }
  EXPECT_FALSE(engine.HasTable("t"));
  // A SELECT that does not bind fails to prepare, uncounted.
  double before = LocalCompiles();
  EXPECT_FALSE(engine.PrepareSelect("SELECT nope FROM pdw_empty").ok());
  EXPECT_EQ(LocalCompiles(), before);
}

TEST(PreparedSelectTest, MatchesExecuteSqlWithOperatorActuals) {
  auto appliance = MakeLoadedAppliance(2, 0.02);
  const LocalEngine& node = appliance->compute_node(0);
  for (EngineKind kind : {EngineKind::kRow, EngineKind::kBatch}) {
    ExecOptions exec;
    exec.engine = kind;
    exec.batch_size = 64;
    for (const tpch::TpchQuery& q : tpch::Queries()) {
      SCOPED_TRACE(q.name + (kind == EngineKind::kRow ? " row" : " batch"));
      ExecProfile direct_profile, split_profile;
      auto direct =
          appliance->mutable_compute_node(0).ExecuteSql(q.sql, &direct_profile,
                                                        exec);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      double before = LocalCompiles();
      auto prepared = node.PrepareSelect(q.sql);
      ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
      ASSERT_NE(*prepared, nullptr);
      EXPECT_EQ(LocalCompiles(), before + 1);
      auto split = node.ExecutePrepared(**prepared, &split_profile, exec);
      ASSERT_TRUE(split.ok()) << split.status().ToString();
      ExpectSameResult(*direct, *split);

      const auto& a = direct_profile.operators;
      const auto& b = split_profile.operators;
      ASSERT_FALSE(a.empty());
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name) << i;
        EXPECT_EQ(a[i].depth, b[i].depth) << i;
        EXPECT_EQ(a[i].estimated_rows, b[i].estimated_rows) << i;
        EXPECT_EQ(a[i].actual_rows, b[i].actual_rows) << i;
        EXPECT_EQ(a[i].selectivity, b[i].selectivity) << i;
      }
    }
  }
}

TEST(PreparedSelectTest, MatchesExecuteSqlOnSystemViews) {
  auto appliance = MakeLoadedAppliance(2, 0.01);
  ASSERT_TRUE(appliance->Run("SELECT COUNT(*) AS c FROM orders").ok());
  ASSERT_TRUE(appliance
                  ->Run("SELECT c_name, o_totalprice FROM customer, orders "
                        "WHERE c_custkey = o_custkey")
                  .ok());
  LocalEngine& control = appliance->mutable_control_engine();
  const std::string sql =
      "SELECT r.request_id, r.status, COUNT(*) AS steps "
      "FROM sys.dm_pdw_exec_requests AS r, sys.dm_pdw_exec_steps AS s "
      "WHERE r.request_id = s.request_id "
      "GROUP BY r.request_id, r.status ORDER BY r.request_id";
  auto direct = control.ExecuteSql(sql);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  auto prepared = control.PrepareSelect(sql);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_NE(*prepared, nullptr);
  auto split = control.ExecutePrepared(**prepared);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  ExpectSameResult(*direct, *split);
  EXPECT_EQ(split->rows.size(), 2u);

  // The views are materialized per execution, not per prepare: the same
  // plan sees a request that finished after it was prepared.
  ASSERT_TRUE(appliance->Run("SELECT COUNT(*) AS c FROM customer").ok());
  auto later = control.ExecutePrepared(**prepared);
  ASSERT_TRUE(later.ok()) << later.status().ToString();
  EXPECT_EQ(later->rows.size(), 3u);
}

// --- one local compile per step --------------------------------------------

TEST(LocalCompileTest, Q5CompilesEachStepOnce) {
  auto appliance = MakeLoadedAppliance(8, 0.05);
  const tpch::TpchQuery* q5 = tpch::FindQuery("Q5");
  ASSERT_NE(q5, nullptr);
  for (DmsCodec codec : {DmsCodec::kColumnar, DmsCodec::kRow}) {
    SCOPED_TRACE(codec == DmsCodec::kColumnar ? "columnar" : "row");
    double before = LocalCompiles();
    auto r = appliance->Run(q5->sql, QueryOptions().WithDmsCodec(codec));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Every DSQL step carries a SELECT; each is compiled exactly once, not
    // once per source node.
    ASSERT_GT(r->dsql.steps.size(), 1u);
    EXPECT_EQ(LocalCompiles() - before,
              static_cast<double>(r->dsql.steps.size()));
    size_t fanned_out = 0;
    for (const obs::StepProfile& sp : r->profile.steps) {
      EXPECT_GT(sp.local_compile_seconds, 0.0) << "step " << sp.index;
      if (sp.node_seconds.size() == 8) ++fanned_out;
    }
    EXPECT_GT(fanned_out, 0u) << "no step ran on all 8 nodes";
  }
}

// --- one plan for every source node ----------------------------------------

/// Compute-node catalogs hold shapes only; statistics live in the shell
/// database (§2.2). A node catalog with statistics would make its plans
/// depend on its own rows.
void ExpectNoLocalStatistics(const Appliance& appliance) {
  for (int n = 0; n < appliance.num_compute_nodes(); ++n) {
    const Catalog& catalog = appliance.compute_node(n).catalog();
    for (const std::string& name : catalog.ListTables()) {
      auto def = catalog.GetTable(name);
      ASSERT_TRUE(def.ok());
      EXPECT_EQ((*def)->stats.row_count, 0) << name << " on node " << n;
      EXPECT_TRUE((*def)->stats.columns.empty()) << name << " on node " << n;
    }
  }
}

TEST(LocalCompileTest, StepPlansAreNodeIndependent) {
  auto appliance = MakeLoadedAppliance(8, 0.2);
  ExpectNoLocalStatistics(*appliance);
  DmsExecOptions row_codec;
  row_codec.codec = DmsCodec::kRow;
  size_t compared = 0;
  for (const tpch::TpchQuery& q : tpch::Queries()) {
    auto explained = appliance->Run(q.sql, QueryOptions().WithExplainOnly());
    ASSERT_TRUE(explained.ok()) << q.name << ": "
                                << explained.status().ToString();
    std::vector<std::string> temps;
    for (size_t i = 0; i < explained->dsql.steps.size(); ++i) {
      const DsqlStep& step = explained->dsql.steps[i];
      SCOPED_TRACE(q.name + " step " + std::to_string(i));
      // Prepare on every source node: each must build the first one's plan.
      const std::vector<int> sources = appliance->SourceNodes(step);
      std::vector<std::shared_ptr<const PreparedSelect>> plans;
      for (int node : sources) {
        auto prepared = EngineOf(appliance.get(), node).PrepareSelect(step.sql);
        ASSERT_TRUE(prepared.ok()) << "node " << node << ": "
                                   << prepared.status().ToString();
        ASSERT_NE(*prepared, nullptr);
        plans.push_back(*prepared);
      }
      const std::string first = PlanTreeToString(*plans.front()->plan);
      for (size_t k = 1; k < plans.size(); ++k) {
        EXPECT_EQ(PlanTreeToString(*plans[k]->plan), first)
            << "node " << sources[k];
        EXPECT_EQ(plans[k]->output_names, plans.front()->output_names);
        EXPECT_EQ(plans[k]->visible_columns, plans.front()->visible_columns);
        ++compared;
      }
      if (step.kind != DsqlStepKind::kDms) continue;
      // Materialize the step's temp as execution does: every source node
      // runs the first node's plan, DMS routes the rows, every target lands
      // its share — so later steps compile against real, filled temps.
      std::vector<RowVector> source_rows(
          static_cast<size_t>(appliance->num_compute_nodes() + 1));
      for (int node : sources) {
        auto rows = EngineOf(appliance.get(), node).ExecutePrepared(
            *plans.front());
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        source_rows[static_cast<size_t>(node)] = std::move(rows->rows);
      }
      auto routed = appliance->dms().Execute(step.move_kind,
                                             std::move(source_rows),
                                             step.hash_column_ordinals,
                                             nullptr, nullptr, row_codec);
      ASSERT_TRUE(routed.ok()) << routed.status().ToString();
      TableDef temp;
      temp.name = step.dest_table;
      temp.schema = step.dest_schema;
      for (int node : appliance->TargetNodes(step)) {
        LocalEngine& engine = EngineOf(appliance.get(), node);
        ASSERT_TRUE(engine.CreateTable(temp).ok());
        ASSERT_TRUE(engine
                        .InsertRows(step.dest_table,
                                    std::move((*routed)[static_cast<size_t>(
                                        node)]))
                        .ok());
      }
      temps.push_back(step.dest_table);
    }
    for (const std::string& name : temps) {
      for (int node = 0; node <= appliance->num_compute_nodes(); ++node) {
        LocalEngine& engine = EngineOf(appliance.get(), node);
        if (engine.HasTable(name)) ASSERT_TRUE(engine.DropTable(name).ok());
      }
    }
  }
  EXPECT_GT(compared, 0u);
  ExpectNoLocalStatistics(*appliance);
}

// --- a step that fails to prepare ------------------------------------------

TEST(LocalCompileTest, UnpreparableStepFailsCleanly) {
  auto appliance = MakeLoadedAppliance(4, 0.01);
  Session session = appliance->Connect();
  const std::string sql =
      "SELECT c_nationkey, COUNT(*) AS cnt FROM customer, orders "
      "WHERE c_custkey = o_custkey GROUP BY c_nationkey";
  const std::string bad_sql = "SELECT no_such_column FROM pdw_empty";
  for (DmsCodec codec : {DmsCodec::kColumnar, DmsCodec::kRow}) {
    QueryOptions options = QueryOptions().WithPlanCache().WithDmsCodec(codec);
    options.execute.retry.max_attempts = 3;
    options.execute.retry.sleep_fn = [](double) {};
    const std::string normalized = NormalizeSqlForPlanCache(sql);
    const std::string fingerprint =
        FingerprintCompilerOptions(options.compile.compiler);
    appliance->plan_cache().Clear();
    auto good = session.Run(sql, options);
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    auto cached = appliance->plan_cache().Lookup(normalized, fingerprint);
    ASSERT_TRUE(cached.has_value());
    const size_t steps = cached->dsql.steps.size();
    ASSERT_GE(steps, 2u);
    // Plant the bad SQL in the first (DMS) step and in the last (Return)
    // step. A transient dispatch fault is armed too: planted first, it
    // never fires, since the step fails before any node is dispatched;
    // planted last, it fires on an earlier step, which retries and
    // succeeds, and the query still fails at the bad step.
    for (size_t bad : {size_t{0}, steps - 1}) {
      SCOPED_TRACE(std::string(codec == DmsCodec::kColumnar ? "columnar"
                                                            : "row") +
                   " bad step " + std::to_string(bad));
      CachedDsqlPlan planted = *cached;
      planted.dsql.steps[bad].sql = bad_sql;
      const int first_source =
          appliance->SourceNodes(planted.dsql.steps[bad]).front();
      appliance->plan_cache().Insert(normalized, fingerprint, planted);
      QueryOptions faulted = options;
      faulted.execute.faults = {{"appliance.step.dispatch", 0, 1,
                                 fault::FaultKind::kTransientError}};
      obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
      double injected = metrics.counter("fault.injected.point."
                                        "appliance.step.dispatch");
      double compiles = LocalCompiles();
      auto r = session.Run(sql, faulted);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kExecutionError)
          << r.status().ToString();
      const std::string& msg = r.status().message();
      EXPECT_EQ(msg.rfind("DSQL step failed on node " +
                              std::to_string(first_source) + ": ",
                          0),
                0u)
          << msg;
      EXPECT_NE(msg.find("no_such_column"), std::string::npos) << msg;
      EXPECT_NE(msg.find("\nSQL: " + bad_sql), std::string::npos) << msg;
      EXPECT_EQ(metrics.counter("fault.injected.point."
                                "appliance.step.dispatch") -
                    injected,
                bad == 0 ? 0.0 : 1.0);
      // Steps before the bad one compiled once each (plus the retried one
      // once more); the bad step's compile failed.
      EXPECT_EQ(LocalCompiles() - compiles,
                static_cast<double>(bad == 0 ? 0 : bad + 1));
      // No TEMP litter anywhere, no request left active, and the failure
      // is the request's terminal state.
      for (int node = 0; node <= appliance->num_compute_nodes(); ++node) {
        for (const std::string& t :
             EngineOf(appliance.get(), node).catalog().ListTables()) {
          EXPECT_EQ(t.find("TEMP_ID"), std::string::npos)
              << "leaked " << t << " on node " << node;
        }
      }
      EXPECT_EQ(appliance->requests().active_count(), 0u);
      const obs::RequestState last = appliance->requests().Snapshot().back();
      EXPECT_EQ(last.phase, obs::RequestPhase::kFailed);
      EXPECT_EQ(last.error, r.status().ToString());
    }
    // The appliance stays serviceable once the plan is recompiled.
    appliance->plan_cache().Clear();
    auto after = session.Run(sql, options);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_TRUE(RowSetsEqual(after->rows, good->rows));
  }
}

}  // namespace
}  // namespace pdw
