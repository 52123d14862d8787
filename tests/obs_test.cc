// Tests for the observability substrate: trace spans, metrics registry,
// formatting helpers, the QueryProfile renderings, and the request
// registry behind the sys.dm_pdw_* views.

#include <gtest/gtest.h>

#include <cctype>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/format.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/request_registry.h"
#include "obs/trace.h"

namespace pdw::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON well-formedness checker (recursive descent). The repo has no
// JSON library, and the exporters hand-build their output, so every ToJson
// surface is pushed through this.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    for (const char* p = lit; *p; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool IsValidJson(const std::string& s) { return JsonChecker(s).Valid(); }

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_TRUE(IsValidJson("[1,2.5,-3e-2,\"a\\\"b\",true,null,{\"k\":[]}]"));
  EXPECT_FALSE(IsValidJson("{"));
  EXPECT_FALSE(IsValidJson("{\"a\":1,}"));
  EXPECT_FALSE(IsValidJson("[1 2]"));
  EXPECT_FALSE(IsValidJson("\"unterminated"));
  EXPECT_FALSE(IsValidJson("{\"a\":01x}"));
}

// ---------------------------------------------------------------------------
// Formatting helpers.

TEST(FormatTest, Bytes) {
  EXPECT_EQ(FormatBytes(0), "0B");
  EXPECT_EQ(FormatBytes(482), "482B");
  EXPECT_EQ(FormatBytes(12.3 * 1024), "12.30KB");
  EXPECT_EQ(FormatBytes(4.5 * 1024 * 1024), "4.50MB");
  EXPECT_EQ(FormatBytes(3.0 * 1024 * 1024 * 1024), "3.00GB");
}

TEST(FormatTest, Seconds) {
  EXPECT_EQ(FormatSeconds(3.5), "3.500s");
  EXPECT_EQ(FormatSeconds(0.00124), "1.24ms");
  EXPECT_EQ(FormatSeconds(2e-6), "2.00us");
  EXPECT_EQ(FormatSeconds(835e-9), "835ns");
}

TEST(FormatTest, JsonEscape) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string("x\x01y", 3)), "x\\u0001y");
}

TEST(FormatTest, JsonNumberAlwaysParses) {
  for (double v : {0.0, 1.0, -2.5, 1e-9, 3.14159e12, 1e20,
                   std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_TRUE(IsValidJson(JsonNumber(v))) << JsonNumber(v);
  }
  EXPECT_EQ(JsonNumber(42), "42");
  EXPECT_EQ(JsonNumber(-7), "-7");
}

// ---------------------------------------------------------------------------
// Tracer.

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  {
    TraceSpan outer("outer", &tracer);
    EXPECT_FALSE(outer.active());
    outer.AddAttr("k", 1.0);  // must be a safe no-op
  }
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(TracerTest, NestingFormsTree) {
  Tracer tracer;
  tracer.Enable();
  {
    TraceSpan root("compile", &tracer);
    {
      TraceSpan child("parse", &tracer);
      child.AddAttr("bytes", 128.0);
    }
    { TraceSpan child2("optimize", &tracer); }
  }
  { TraceSpan other("execute", &tracer); }

  std::vector<TraceRecord> recs = tracer.Snapshot();
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].name, "compile");
  EXPECT_EQ(recs[0].parent, -1);
  EXPECT_EQ(recs[0].depth, 0);
  EXPECT_EQ(recs[1].name, "parse");
  EXPECT_EQ(recs[1].parent, recs[0].id);
  EXPECT_EQ(recs[1].depth, 1);
  ASSERT_EQ(recs[1].attrs.size(), 1u);
  EXPECT_EQ(recs[1].attrs[0].first, "bytes");
  EXPECT_EQ(recs[2].name, "optimize");
  EXPECT_EQ(recs[2].parent, recs[0].id);
  EXPECT_EQ(recs[3].name, "execute");
  EXPECT_EQ(recs[3].parent, -1);
  // Wall time of the parent covers its children.
  EXPECT_GE(recs[0].wall_seconds,
            recs[1].wall_seconds + recs[2].wall_seconds - 1e-9);

  std::string text = tracer.ToText();
  EXPECT_NE(text.find("compile"), std::string::npos);
  EXPECT_NE(text.find("  parse"), std::string::npos);
  EXPECT_TRUE(IsValidJson(tracer.ToJson())) << tracer.ToJson();
}

TEST(TracerTest, EndIsIdempotentAndClearWorks) {
  Tracer tracer;
  tracer.Enable();
  TraceSpan span("s", &tracer);
  span.End();
  span.End();
  EXPECT_EQ(tracer.size(), 1u);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_TRUE(IsValidJson(tracer.ToJson()));
}

TEST(TracerTest, ThreadSafetySmoke) {
  Tracer tracer;
  tracer.Enable();
  constexpr int kThreads = 8, kSpans = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpans; ++i) {
        TraceSpan outer("outer" + std::to_string(t), &tracer);
        TraceSpan inner("inner", &tracer);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<TraceRecord> recs = tracer.Snapshot();
  ASSERT_EQ(recs.size(), static_cast<size_t>(kThreads * kSpans * 2));
  // Every inner span's parent must be an outer span from its own thread.
  for (const TraceRecord& r : recs) {
    if (r.name == "inner") {
      ASSERT_GE(r.parent, 0);
      EXPECT_EQ(recs[static_cast<size_t>(r.parent)].name.substr(0, 5),
                "outer");
    }
  }
  EXPECT_TRUE(IsValidJson(tracer.ToJson()));
}

// ---------------------------------------------------------------------------
// MetricsRegistry.

TEST(MetricsTest, CountersAndGauges) {
  MetricsRegistry reg;
  reg.Count("optimizer.groups", 5);
  reg.Count("optimizer.groups", 3);
  reg.SetGauge("dms.lambda.network", 2.5);
  EXPECT_EQ(reg.counter("optimizer.groups"), 8);
  EXPECT_EQ(reg.counter("missing"), 0);
  EXPECT_EQ(reg.gauge("dms.lambda.network"), 2.5);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("optimizer.groups"), 8);
  reg.Reset();
  EXPECT_EQ(reg.counter("optimizer.groups"), 0);
}

TEST(MetricsTest, ExplicitHistogramBuckets) {
  MetricsRegistry reg;
  reg.DefineHistogram("executor.batch_rows", {10, 100, 1000});
  for (double v : {1.0, 5.0, 10.0, 50.0, 500.0, 5000.0, 50000.0}) {
    reg.Observe("executor.batch_rows", v);
  }
  HistogramSnapshot h = reg.Snapshot().histograms.at("executor.batch_rows");
  ASSERT_EQ(h.bounds.size(), 3u);
  ASSERT_EQ(h.counts.size(), 4u);
  EXPECT_EQ(h.counts[0], 3u);  // 1, 5, 10 (bounds inclusive)
  EXPECT_EQ(h.counts[1], 1u);  // 50
  EXPECT_EQ(h.counts[2], 1u);  // 500
  EXPECT_EQ(h.counts[3], 2u);  // 5000, 50000 overflow
  EXPECT_EQ(h.count, 7u);
  EXPECT_EQ(h.min, 1);
  EXPECT_EQ(h.max, 50000);
  EXPECT_EQ(h.sum, 1 + 5 + 10 + 50 + 500 + 5000 + 50000);
}

TEST(MetricsTest, ObserveAutoDeclaresDecadeBuckets) {
  MetricsRegistry reg;
  reg.Observe("dms.step.bytes", 42);
  HistogramSnapshot h = reg.Snapshot().histograms.at("dms.step.bytes");
  ASSERT_EQ(h.bounds.size(), 10u);  // 1, 10, ..., 1e9
  EXPECT_EQ(h.bounds.front(), 1);
  EXPECT_EQ(h.bounds.back(), 1e9);
  EXPECT_EQ(h.count, 1u);
}

TEST(MetricsTest, SnapshotJsonAndTextRender) {
  MetricsRegistry reg;
  reg.Count("a.b", 2);
  reg.SetGauge("c.d", 1.5);
  reg.Observe("e.f", 3);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_TRUE(IsValidJson(snap.ToJson())) << snap.ToJson();
  std::string text = snap.ToText();
  EXPECT_NE(text.find("a.b"), std::string::npos);
  EXPECT_NE(text.find("c.d"), std::string::npos);
}

TEST(MetricsTest, ThreadSafetySmoke) {
  MetricsRegistry reg;
  constexpr int kThreads = 8, kOps = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kOps; ++i) {
        reg.Count("shared.counter");
        reg.Observe("shared.histogram", i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter("shared.counter"), kThreads * kOps);
  EXPECT_EQ(reg.Snapshot().histograms.at("shared.histogram").count,
            static_cast<uint64_t>(kThreads * kOps));
}

// ---------------------------------------------------------------------------
// QueryProfile.

QueryProfile MakeProfile() {
  QueryProfile p;
  p.sql = "SELECT 1";
  p.compile_phases = {{"parse", 1e-4}, {"bind", 2e-4}};
  p.compile_seconds = 3e-4;
  p.optimizer = {12, 40, 25, 15, 6};
  StepProfile dms;
  dms.index = 0;
  dms.kind = "DMS";
  dms.move_kind = "Shuffle";
  dms.dest_table = "TEMP_ID_1";
  dms.sql = "SELECT o_custkey FROM orders";
  dms.estimated_rows = 1500;
  dms.actual_rows = 100;  // 15x misestimate
  dms.estimated_cost = 0.25;
  dms.measured_seconds = 0.01;
  dms.rows_moved = 100;
  dms.reader = {4096, 0.001};
  dms.network = {2048, 0.002};
  dms.writer = {4096, 0.001};
  dms.bulkcopy = {4096, 0.003};
  dms.local_compile_seconds = 0.0015;
  dms.node_seconds = {{0, 0.004}, {1, 0.005}};
  StepProfile ret;
  ret.index = 1;
  ret.kind = "RETURN";
  ret.sql = "SELECT * FROM TEMP_ID_1";
  ret.estimated_rows = 100;
  ret.actual_rows = 100;
  ret.operators = {{0, "HashAggregate(global)", 100, 100, 0.002, 8},
                   {1, "TableScan(TEMP_ID_1)", 100, 100, 0.001, 8}};
  p.steps = {dms, ret};
  p.modeled_cost = 0.25;
  p.measured_seconds = 0.02;
  return p;
}

TEST(QueryProfileTest, MisestimateFactor) {
  StepProfile s;
  s.estimated_rows = 1500;
  s.actual_rows = 100;
  EXPECT_DOUBLE_EQ(s.MisestimateFactor(), 15.0);
  s.estimated_rows = 100;
  s.actual_rows = 1500;
  EXPECT_DOUBLE_EQ(s.MisestimateFactor(), 15.0);
  s.estimated_rows = 0;  // floors at 1
  s.actual_rows = 0;
  EXPECT_DOUBLE_EQ(s.MisestimateFactor(), 1.0);
}

TEST(QueryProfileTest, TextRendering) {
  QueryProfile p = MakeProfile();
  std::string text = p.ToText();
  EXPECT_NE(text.find("EXPLAIN ANALYZE SELECT 1"), std::string::npos);
  EXPECT_NE(text.find("parse="), std::string::npos);
  EXPECT_NE(text.find("optimizer: groups=12 options=40 kept=25 pruned=15 "
                      "enforcers=6"),
            std::string::npos);
  EXPECT_NE(text.find("DSQL step 0: DMS Shuffle -> TEMP_ID_1"),
            std::string::npos);
  EXPECT_NE(text.find("[MISESTIMATE 15x]"), std::string::npos);
  EXPECT_NE(text.find("reader{4.00KB"), std::string::npos);
  // The step's one local compile, then each node's execute-only time.
  EXPECT_NE(text.find("local compile 1.50ms   nodes: n0=4.00ms n1=5.00ms"),
            std::string::npos);
  EXPECT_NE(text.find("DSQL step 1: RETURN"), std::string::npos);
  EXPECT_NE(text.find("HashAggregate(global)"), std::string::npos);
  // The aligned RETURN step (accurate estimate) must not be flagged.
  size_t ret_pos = text.find("DSQL step 1");
  EXPECT_EQ(text.find("MISESTIMATE", ret_pos), std::string::npos);
}

TEST(QueryProfileTest, ThresholdControlsFlagging) {
  QueryProfile p = MakeProfile();
  EXPECT_EQ(p.ToText(16.0).find("MISESTIMATE"), std::string::npos);
  EXPECT_NE(p.ToText(2.0).find("MISESTIMATE"), std::string::npos);
}

TEST(QueryProfileTest, JsonRoundTrip) {
  QueryProfile p = MakeProfile();
  p.sql = "SELECT \"quoted\"\nAND newline";
  std::string json = p.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"move_kind\":\"Shuffle\""), std::string::npos);
  EXPECT_NE(json.find("\"misestimate_factor\":15"), std::string::npos);
  EXPECT_NE(json.find("\"local_compile_seconds\":0.0015,\"node_seconds\":"
                      "[{\"node\":0,\"seconds\":0.004}"),
            std::string::npos);
  EXPECT_NE(json.find("\"operators\":[{\"depth\":0"), std::string::npos);
  // Empty profile must still be valid JSON.
  EXPECT_TRUE(IsValidJson(QueryProfile{}.ToJson()));
}

// ---------------------------------------------------------------------------
// RequestRegistry: the step records behind sys.dm_pdw_exec_steps.

/// Registers request 7 and starts executing a two-step plan (DMS, RETURN).
void StartExecuting(RequestRegistry* reg) {
  reg->Register(7, 1, "SELECT 1", "batch");
  reg->BeginCompile(7);
  StepProfile dms;
  dms.index = 0;
  dms.kind = "DMS";
  dms.move_kind = "Shuffle";
  dms.dest_table = "TEMP_ID_Q7_1";
  dms.sql = "SELECT o_custkey FROM orders";
  StepProfile ret;
  ret.index = 1;
  ret.kind = "RETURN";
  ret.sql = "SELECT * FROM TEMP_ID_Q7_1";
  reg->BeginExecute(7, {dms, ret});
}

const RequestState& Only(const std::vector<RequestState>& snapshot) {
  EXPECT_EQ(snapshot.size(), 1u);
  return snapshot.front();
}

TEST(RequestRegistryTest, EndCompileStoresTheCompileProfile) {
  RequestRegistry reg;
  reg.Register(3, 1, "SELECT 1", "row");
  QueryProfile profile = MakeProfile();
  profile.cache_hit = true;
  profile.optimizer.memo_exprs = 77;
  profile.optimizer.beam_used = true;
  reg.EndCompile(3, profile);
  RequestState r = Only(reg.Snapshot());
  EXPECT_TRUE(r.cache_hit);
  ASSERT_EQ(r.compile_phases.size(), 2u);
  EXPECT_EQ(r.compile_phases[1].name, "bind");
  EXPECT_EQ(r.compile_phases[1].seconds, 2e-4);
  EXPECT_EQ(r.optimizer.groups, 12);
  EXPECT_EQ(r.optimizer.memo_exprs, 77);
  EXPECT_TRUE(r.optimizer.beam_used);
}

TEST(RequestRegistryTest, BeginStepOnRetryResetsLiveCounts) {
  RequestRegistry reg;
  StartExecuting(&reg);
  reg.BeginStep(7, 0, 0);
  reg.StepProgress(7, 0, 40, 4096);
  reg.BeginStep(7, 0, 1);  // the first attempt failed transiently
  RequestState r = Only(reg.Snapshot());
  EXPECT_EQ(r.current_step, 0);
  const StepProfile& s = r.steps[0];
  EXPECT_EQ(s.status, "running");
  EXPECT_EQ(s.retries, 1);
  EXPECT_EQ(s.rows_moved, 0);
  EXPECT_EQ(s.network.bytes, 0);
  EXPECT_EQ(r.TotalRetries(), 1);
  EXPECT_EQ(r.RowsMoved(), 0);
  EXPECT_EQ(r.BytesMoved(), 0);
}

TEST(RequestRegistryTest, StepProgressAccumulatesIntoTheRunningStep) {
  RequestRegistry reg;
  StartExecuting(&reg);
  reg.BeginStep(7, 0, 0);
  reg.StepProgress(7, 0, 10, 1000);
  reg.StepProgress(7, 0, 15, 500);
  RequestState r = Only(reg.Snapshot());
  EXPECT_EQ(StepRowsMoved(r.steps[0]), 25);
  EXPECT_EQ(StepBytesMoved(r.steps[0]), 1500);
  EXPECT_EQ(r.steps[1].status, "pending");
  EXPECT_EQ(StepRowsMoved(r.steps[1]), 0);
  EXPECT_EQ(r.RowsMoved(), 25);
  EXPECT_EQ(r.BytesMoved(), 1500);
}

TEST(RequestRegistryTest, EndStepReplacesTheStepWithItsFinalRecord) {
  RequestRegistry reg;
  StartExecuting(&reg);
  reg.BeginStep(7, 0, 0);
  reg.StepProgress(7, 0, 999, 99999);  // live counts, superseded below
  StepProfile done;
  done.index = 0;
  done.kind = "DMS";
  done.dest_table = "TEMP_ID_Q3_1";  // e.g. a follower's adopted temp
  done.status = "complete";
  done.rows_moved = 100;
  done.actual_rows = 100;
  done.network = {2048, 0.002};
  done.measured_seconds = 0.01;
  done.node_seconds = {{0, 0.004}, {1, 0.005}};
  reg.EndStep(7, done);
  RequestState r = Only(reg.Snapshot());
  const StepProfile& s = r.steps[0];
  EXPECT_EQ(s.status, "complete");
  EXPECT_EQ(s.dest_table, "TEMP_ID_Q3_1");
  // Stored as given: nothing is merged back from the skeleton.
  EXPECT_TRUE(s.move_kind.empty());
  EXPECT_TRUE(s.sql.empty());
  EXPECT_EQ(StepRowsMoved(s), 100);
  EXPECT_EQ(StepBytesMoved(s), 2048);
  EXPECT_EQ(s.measured_seconds, 0.01);
  EXPECT_EQ(s.node_seconds.size(), 2u);

  // A Return step reports the rows it returned.
  StepProfile ret = r.steps[1];
  ret.status = "complete";
  ret.actual_rows = 5;
  reg.EndStep(7, ret);
  EXPECT_EQ(StepRowsMoved(Only(reg.Snapshot()).steps[1]), 5);
  EXPECT_EQ(Only(reg.Snapshot()).RowsMoved(), 105);
}

TEST(RequestRegistryTest, FailedOrCancelledRequestFailsItsRunningStep) {
  for (bool cancel : {false, true}) {
    SCOPED_TRACE(cancel ? "cancelled" : "failed");
    RequestRegistry reg;
    StartExecuting(&reg);
    reg.BeginStep(7, 0, 0);
    if (cancel) {
      reg.Cancel(7, "cancelled by client");
    } else {
      reg.Fail(7, "node 2 failed");
    }
    EXPECT_EQ(reg.active_count(), 0u);
    RequestState r = Only(reg.Snapshot());
    EXPECT_EQ(r.phase,
              cancel ? RequestPhase::kCancelled : RequestPhase::kFailed);
    EXPECT_EQ(r.steps[0].status, "failed");
    EXPECT_EQ(r.steps[1].status, "pending");
  }
  // A completed request keeps its step statuses as they were.
  RequestRegistry reg;
  StartExecuting(&reg);
  reg.BeginStep(7, 0, 0);
  reg.Complete(7);
  EXPECT_EQ(Only(reg.Snapshot()).steps[0].status, "running");
}

TEST(RequestRegistryTest, UnknownQueryIdsAndStepIndexesAreIgnored) {
  RequestRegistry reg;
  StartExecuting(&reg);
  StepProfile stray;
  stray.status = "complete";
  stray.rows_moved = 5;
  // Unknown query id.
  reg.BeginCompile(99);
  reg.EndCompile(99, MakeProfile());
  reg.BeginStep(99, 0, 2);
  reg.StepProgress(99, 0, 5, 5);
  reg.EndStep(99, stray);
  reg.Fail(99, "unknown");
  // Step indexes outside the plan.
  for (int index : {-1, 2, 100}) {
    reg.BeginStep(7, index, 3);
    reg.StepProgress(7, index, 5, 5);
    stray.index = index;
    reg.EndStep(7, stray);
  }
  EXPECT_EQ(reg.active_count(), 1u);
  EXPECT_EQ(reg.finished_count(), 0u);
  RequestState r = Only(reg.Snapshot());
  EXPECT_EQ(r.current_step, -1);
  ASSERT_EQ(r.steps.size(), 2u);
  for (const StepProfile& s : r.steps) {
    EXPECT_EQ(s.status, "pending");
    EXPECT_EQ(s.retries, 0);
    EXPECT_EQ(StepRowsMoved(s), 0);
    EXPECT_EQ(StepBytesMoved(s), 0);
  }
}

}  // namespace
}  // namespace pdw::obs
