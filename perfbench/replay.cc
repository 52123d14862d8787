#include "replay.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "optimizer/serial_optimizer.h"
#include "pdw/baseline.h"
#include "pdw/compiler.h"
#include "pdw/dsql.h"
#include "pdw/pdw_optimizer.h"
#include "sql/parser.h"
#include "xmlio/memo_xml.h"

namespace pdwbench {

namespace {

using namespace pdw;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times `fn()` into `*ms` and returns what it returns.
template <typename F>
auto Timed(double* ms, F&& fn) {
  double t0 = NowMs();
  auto out = fn();
  *ms += NowMs() - t0;
  return out;
}

/// Replaces every `TEMP_ID_Q<digits>_` prefix with `TEMP_ID_`, undoing the
/// appliance's per-execution temp-name uniquifying.
std::string StripTempTags(const std::string& text) {
  const std::string marker = "TEMP_ID_";
  std::string out;
  size_t pos = 0;
  for (;;) {
    size_t hit = text.find(marker, pos);
    if (hit == std::string::npos) return out + text.substr(pos);
    out.append(text, pos, hit + marker.size() - pos);
    size_t p = hit + marker.size();
    if (p < text.size() && text[p] == 'Q') {
      size_t q = p + 1;
      while (q < text.size() && std::isdigit(static_cast<unsigned char>(text[q]))) ++q;
      if (q > p + 1 && q < text.size() && text[q] == '_') p = q + 1;
    }
    pos = p;
  }
}

std::string ReplaceAll(std::string s, const std::string& from,
                       const std::string& to) {
  for (size_t pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size())) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

// The appliance's node selection for a step (Appliance::SourceNodes and
// TargetNodes are private; these mirror them).
std::vector<int> SourceNodes(const DsqlStep& step, int n) {
  if (step.source_distribution.is_control()) return {n};
  if (step.kind == DsqlStepKind::kReturn &&
      step.source_distribution.is_replicated()) {
    return {0};
  }
  if (step.kind == DsqlStepKind::kDms) {
    if (step.move_kind == DmsOpKind::kReplicatedBroadcast) return {0};
    if (step.move_kind == DmsOpKind::kRemoteCopyToSingle &&
        step.source_distribution.is_replicated()) {
      return {0};
    }
  }
  std::vector<int> all(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
  return all;
}

std::vector<int> TargetNodes(const DsqlStep& step, int n) {
  if (step.move_kind == DmsOpKind::kPartitionMove ||
      step.move_kind == DmsOpKind::kRemoteCopyToSingle) {
    return {n};
  }
  std::vector<int> all(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
  return all;
}

/// The compile half: CompilePdwQuery's calls with its default options.
Result<DsqlPlan> ReplayCompile(const Catalog& shell, const std::string& sql,
                               LayerTimes* t) {
  const PdwCompilerOptions options;
  PDW_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStatement> stmt,
                       Timed(&t->parse_ms, [&] { return sql::ParseSelect(sql); }));
  PdwCompilerOptions effective = options;
  if (stmt->hint != sql::DistributionHint::kNone) {
    effective.pdw.hint = stmt->hint;
  }
  PDW_ASSIGN_OR_RETURN(CompilationResult serial, Timed(&t->serial_ms, [&] {
                         return CompileSelect(shell, *stmt, options.memo,
                                              options.normalizer);
                       }));
  if (effective.pdw.opt_threads < 0) {
    effective.pdw.opt_threads = options.memo.opt_threads;
  }
  t->memo_exprs = static_cast<double>(serial.memo->num_exprs());
  std::string xml = Timed(&t->export_ms, [&] {
    return MemoToXml(*serial.memo, *serial.stats);
  });
  t->memo_xml_bytes = static_cast<double>(xml.size());
  PDW_ASSIGN_OR_RETURN(ImportedMemo imported, Timed(&t->import_ms, [&] {
                         return MemoFromXml(xml, shell, options.memo);
                       }));
  PdwOptimizer optimizer(imported.memo.get(), shell.topology(), effective.pdw);
  PDW_ASSIGN_OR_RETURN(PdwPlanResult parallel, Timed(&t->optimize_ms, [&] {
                         return optimizer.Optimize();
                       }));
  t->options_considered = static_cast<double>(parallel.options_considered);
  Status baseline = Timed(&t->baseline_ms, [&]() -> Status {
    PDW_ASSIGN_OR_RETURN(
        PlanNodePtr serial_plan,
        ExtractBestSerialPlan(serial.memo.get(), effective.pdw.opt_threads));
    PDW_ASSIGN_OR_RETURN(
        PlanNodePtr parallelized,
        ParallelizeSerialPlan(serial_plan->Clone(), shell.topology(),
                              optimizer.interesting().equivalence,
                              effective.pdw.cost_params));
    (void)TotalMoveCost(*parallelized);
    return Status::OK();
  });
  PDW_RETURN_NOT_OK(baseline);
  return Timed(&t->dsql_gen_ms, [&] {
    return GenerateDsql(*parallel.plan, serial.output_names, "tpch",
                        serial.visible_columns);
  });
}

/// Runs `sql` on every node of `nodes` at once, as the appliance does,
/// landing node i's rows in (*rows)[node]. Adds Σ node time and the
/// slowest node's time.
Status RunOnNodes(Appliance* a, const std::string& sql,
                  const std::vector<int>& nodes, std::vector<RowVector>* rows,
                  double* sum_ms, double* slowest_ms) {
  size_t count = nodes.size();
  std::vector<Status> status(count);
  std::vector<double> ms(count, 0);
  ThreadPool::Global().ParallelFor(static_cast<int>(count), [&](int i) {
    size_t k = static_cast<size_t>(i);
    int node = nodes[k];
    LocalEngine& engine = node == a->num_compute_nodes()
                              ? a->mutable_control_engine()
                              : a->mutable_compute_node(node);
    double t0 = NowMs();
    auto out = engine.ExecuteSql(sql, nullptr, ExecOptions{});
    ms[k] = NowMs() - t0;
    if (!out.ok()) {
      status[k] = out.status();
      return;
    }
    (*rows)[static_cast<size_t>(node)] = std::move(out->rows);
  });
  for (size_t k = 0; k < count; ++k) {
    PDW_RETURN_NOT_OK(status[k]);
    *sum_ms += ms[k];
    *slowest_ms = std::max(*slowest_ms, ms[k]);
  }
  return Status::OK();
}

/// The execution half: the appliance's DSQL step loop for default options.
Result<RowVector> ReplayExecute(Appliance* a, const DsqlPlan& plan,
                                std::vector<std::string>* temps,
                                LayerTimes* t) {
  const int n = a->num_compute_nodes();
  ThreadPool& pool = ThreadPool::Global();
  RowVector result;
  for (const DsqlStep& step : plan.steps) {
    std::vector<RowVector> rows(static_cast<size_t>(n + 1));
    const std::vector<int> sources = SourceNodes(step, n);
    double slowest = 0;
    PDW_RETURN_NOT_OK(
        RunOnNodes(a, step.sql, sources, &rows, &t->step_sql_ms, &slowest));
    t->step_sql_blocking_ms += slowest;

    if (step.kind == DsqlStepKind::kDms) {
      std::vector<DmsProducer> producers(static_cast<size_t>(n + 1));
      for (int node : sources) {
        producers[static_cast<size_t>(node)] =
            [&moved = rows[static_cast<size_t>(node)]]() -> Result<RowVector> {
          return std::move(moved);
        };
      }
      DmsExecOptions options;
      options.codec = DmsCodec::kColumnar;
      for (const ColumnDef& col : step.dest_schema.columns()) {
        options.types.push_back(col.type);
      }
      DmsRunMetrics m;
      PDW_ASSIGN_OR_RETURN(std::vector<RowVector> routed,
                           Timed(&t->dms_move_ms, [&] {
                             return a->dms().ExecutePipelined(
                                 step.move_kind, std::move(producers),
                                 step.hash_column_ordinals, &m, &pool,
                                 options);
                           }));
      t->dms_reader_ms += m.reader.seconds * 1e3;
      t->dms_network_ms += m.network.seconds * 1e3;
      t->dms_writer_ms += m.writer.seconds * 1e3;
      t->dms_bulkcopy_ms += m.bulkcopy.seconds * 1e3;
      t->dms_bytes += m.network.bytes;

      temps->push_back(step.dest_table);
      TableDef temp_def;
      temp_def.name = step.dest_table;
      temp_def.schema = step.dest_schema;
      const std::vector<int> targets = TargetNodes(step, n);
      std::vector<Status> status(targets.size());
      double t0 = NowMs();
      pool.ParallelFor(static_cast<int>(targets.size()), [&](int i) {
        int node = targets[static_cast<size_t>(i)];
        LocalEngine& engine = node == n ? a->mutable_control_engine()
                                        : a->mutable_compute_node(node);
        Status s = engine.CreateTable(temp_def);
        if (s.ok()) {
          s = engine.InsertRows(step.dest_table,
                                std::move(routed[static_cast<size_t>(node)]));
        }
        status[static_cast<size_t>(i)] = std::move(s);
      });
      t->temp_ms += NowMs() - t0;
      for (const Status& s : status) PDW_RETURN_NOT_OK(s);
      continue;
    }

    // Return step: assemble in node order, merge-sort, limit, trim.
    t->return_sql_ms += slowest;
    for (int node : sources) {
      RowVector& part = rows[static_cast<size_t>(node)];
      result.insert(result.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
    }
    if (!step.merge_sort.empty()) {
      std::stable_sort(result.begin(), result.end(),
                       [&](const Row& x, const Row& y) {
                         for (const auto& [o, asc] : step.merge_sort) {
                           int c = x[static_cast<size_t>(o)].Compare(
                               y[static_cast<size_t>(o)]);
                           if (c != 0) return asc ? c < 0 : c > 0;
                         }
                         return false;
                       });
    }
    if (step.final_limit >= 0 &&
        result.size() > static_cast<size_t>(step.final_limit)) {
      result.resize(static_cast<size_t>(step.final_limit));
    }
    if (plan.visible_columns >= 0) {
      for (Row& r : result) {
        if (r.size() > static_cast<size_t>(plan.visible_columns)) {
          r.resize(static_cast<size_t>(plan.visible_columns));
        }
      }
    }
  }
  return result;
}

void DropTemps(Appliance* a, const std::vector<std::string>& temps) {
  for (const std::string& name : temps) {
    for (int i = 0; i <= a->num_compute_nodes(); ++i) {
      LocalEngine& engine = i == a->num_compute_nodes()
                                ? a->mutable_control_engine()
                                : a->mutable_compute_node(i);
      if (engine.HasTable(name)) (void)engine.DropTable(name);
    }
  }
}

}  // namespace

Result<LayerTimes> ReplayRequest(Appliance* appliance, const std::string& sql,
                                 uint64_t replay_id,
                                 const ApplianceResult& served) {
  LayerTimes t;
  PDW_ASSIGN_OR_RETURN(DsqlPlan plan,
                       ReplayCompile(appliance->shell(), sql, &t));
  if (plan.ToString() != StripTempTags(served.dsql.ToString())) {
    return Status::Internal("replayed DSQL differs from the served plan:\n" +
                            plan.ToString() + "served:\n" +
                            served.dsql.ToString());
  }
  const std::string tag = "TEMP_ID_R" + std::to_string(replay_id) + "_";
  for (DsqlStep& step : plan.steps) {
    step.sql = ReplaceAll(std::move(step.sql), "TEMP_ID_", tag);
    if (!step.dest_table.empty()) {
      step.dest_table = ReplaceAll(std::move(step.dest_table), "TEMP_ID_", tag);
    }
  }
  std::vector<std::string> temps;
  Result<RowVector> rows = ReplayExecute(appliance, plan, &temps, &t);
  DropTemps(appliance, temps);
  PDW_RETURN_NOT_OK(rows.status());
  if (!RowSetsEqual(*rows, served.rows)) {
    return Status::Internal("replayed rows differ from the served rows");
  }
  if (t.dms_bytes != served.dms_metrics.network.bytes) {
    return Status::Internal("replayed DMS bytes differ from the served bytes");
  }
  return t;
}

}  // namespace pdwbench
