#include "pdw/plan_cache.h"

#include <cctype>

#include "common/fault.h"
#include "common/string_util.h"
#include "optimizer/memo.h"

namespace pdw {

std::string NormalizeSqlForPlanCache(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_literal = false;
  bool pending_space = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    char c = sql[i];
    if (in_literal) {
      out.push_back(c);
      if (c == '\'') in_literal = false;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    if (c == '\'') {
      in_literal = true;
      out.push_back(c);
      continue;
    }
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::string FingerprintCompilerOptions(const PdwCompilerOptions& o) {
  // %a renders doubles exactly (hex float), so two λ sets that differ in
  // any bit fingerprint differently. The beam width is resolved before
  // fingerprinting because the env default changes the plan shape just like
  // an explicit option; opt_threads is deliberately excluded — parallel
  // enumeration is byte-identical to serial, so thread count never changes
  // the plan.
  // The preagg switch is resolved like the beam width: the PDW_OPT_PREAGG
  // env default changes the plan shape exactly as the explicit option does,
  // so cached pushed-down plans never serve a pushdown-disabled query (or
  // vice versa).
  return StringFormat(
      "memo:%d,%d,%d,%d,%d,b%d|norm:%d,%d,%d,%d,%d,%d|"
      "pdw:%a,%a,%a,%a,%a,%a,h%d,p%d,%zu,t%d,r%d,%a,pa%d|xml:%d|base:%d",
      o.memo.max_dp_relations, o.memo.expr_budget,
      o.memo.seed_distribution_aware ? 1 : 0,
      o.memo.enable_semijoin_to_join ? 1 : 0, o.memo.enumerate_joins ? 1 : 0,
      ResolveBeamWidth(o.memo.beam_width),
      o.normalizer.fold_constants ? 1 : 0, o.normalizer.push_predicates ? 1 : 0,
      o.normalizer.transitive_closure ? 1 : 0,
      o.normalizer.detect_contradictions ? 1 : 0,
      o.normalizer.eliminate_redundant_joins ? 1 : 0,
      o.normalizer.prune_columns ? 1 : 0, o.pdw.cost_params.lambda_reader_direct,
      o.pdw.cost_params.lambda_reader_hash, o.pdw.cost_params.lambda_network,
      o.pdw.cost_params.lambda_writer, o.pdw.cost_params.lambda_bulkcopy,
      o.pdw.cost_params.lambda_preagg,
      static_cast<int>(o.pdw.hint), o.pdw.prune ? 1 : 0,
      o.pdw.max_options_per_group, o.pdw.enable_trim_move ? 1 : 0,
      o.pdw.relational_costs ? 1 : 0, o.pdw.relational_lambda,
      ResolvePreaggEnabled(o.pdw.enable_preagg) ? 1 : 0,
      o.use_xml_interface ? 1 : 0, o.build_baseline ? 1 : 0);
}

void PlanCache::Insert(const std::string& normalized_sql,
                       const std::string& options_fingerprint,
                       CachedDsqlPlan plan) {
  if (!fault::Check("plan_cache.fill").ok()) return;
  VersionedLru::Insert(normalized_sql, options_fingerprint, std::move(plan));
}

}  // namespace pdw
