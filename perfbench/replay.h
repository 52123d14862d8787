// The traced replay: re-runs one request through every layer's public
// function, timing each call from here, so the per-layer numbers describe
// the same plan, rows and bytes that Session::Run produced.

#ifndef PDW_PERFBENCH_REPLAY_H_
#define PDW_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "appliance/appliance.h"

namespace pdwbench {

/// Wall milliseconds and counts of one replayed request, layer by layer.
struct LayerTimes {
  // Compile (pdw::CompilePdwQuery's pipeline, call by call).
  double parse_ms = 0;       ///< sql::ParseSelect
  double serial_ms = 0;      ///< CompileSelect: bind + normalize + memo
  double export_ms = 0;      ///< MemoToXml
  double import_ms = 0;      ///< MemoFromXml
  double optimize_ms = 0;    ///< PdwOptimizer::Optimize
  double baseline_ms = 0;    ///< ExtractBestSerialPlan + ParallelizeSerialPlan
  double dsql_gen_ms = 0;    ///< GenerateDsql
  double memo_exprs = 0;
  double options_considered = 0;
  double memo_xml_bytes = 0;

  // Execution (the appliance's DSQL step loop, call by call).
  double step_sql_ms = 0;           ///< Σ over steps and nodes of ExecuteSql
  double step_sql_blocking_ms = 0;  ///< Σ over steps of the slowest node
  double return_sql_ms = 0;         ///< Return step, slowest node
  double dms_move_ms = 0;           ///< DmsService::ExecutePipelined wall
  double dms_reader_ms = 0;         ///< component seconds, summed over nodes
  double dms_network_ms = 0;
  double dms_writer_ms = 0;
  double dms_bulkcopy_ms = 0;
  double dms_bytes = 0;             ///< network bytes moved
  double temp_ms = 0;               ///< temp CreateTable + InsertRows

  double CompileMs() const {
    return parse_ms + serial_ms + export_ms + import_ms + optimize_ms +
           baseline_ms + dsql_gen_ms;
  }
  /// Layers on the critical path of execution.
  double ExecuteMs() const {
    return step_sql_blocking_ms + dms_move_ms + temp_ms;
  }
};

/// Replays `sql` on `appliance` (default QueryOptions: plan cache on, XML
/// interface on, baseline built, columnar DMS) with temp tables named
/// TEMP_ID_R<replay_id>_k, and checks the outcome against `served`, the
/// Session::Run result of the same statement on the same data: the DSQL
/// text, the result rows and the DMS bytes must all be equal. Returns an
/// error describing the first difference. Single-threaded use only.
pdw::Result<LayerTimes> ReplayRequest(pdw::Appliance* appliance,
                                      const std::string& sql,
                                      uint64_t replay_id,
                                      const pdw::ApplianceResult& served);

}  // namespace pdwbench

#endif  // PDW_PERFBENCH_REPLAY_H_
