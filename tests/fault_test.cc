// Unit tests of the deterministic fault-injection subsystem: PDW_FAULTS
// schedule parsing (including malformed specs), FaultRegistry arming /
// firing / query scoping, and RetryPolicy backoff + RunWithRetries
// attempt accounting with a fake clock.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace pdw {
namespace {

using fault::FaultKind;
using fault::FaultRegistry;
using fault::FaultSchedule;
using fault::FaultSpec;
using fault::ParseFaultSchedule;

/// Every registry test starts and ends with a clean global registry so the
/// process-wide singleton never leaks armed schedules between tests.
class FaultRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

TEST(ParseFaultScheduleTest, SingleSpec) {
  auto schedule = ParseFaultSchedule("dms.pack:*:1:transient");
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ASSERT_EQ(schedule->size(), 1u);
  EXPECT_EQ((*schedule)[0].point, "dms.pack");
  EXPECT_EQ((*schedule)[0].query, 0u);
  EXPECT_EQ((*schedule)[0].count, 1);
  EXPECT_EQ((*schedule)[0].kind, FaultKind::kTransientError);
}

TEST(ParseFaultScheduleTest, MultipleSpecsAndSeparators) {
  auto schedule = ParseFaultSchedule(
      " dms.network:2:3:permanent ; appliance.step.dispatch:*:*:delay ,"
      " dms.bulkcopy:1:1:delay@0.25 ");
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ASSERT_EQ(schedule->size(), 3u);
  EXPECT_EQ((*schedule)[0].point, "dms.network");
  EXPECT_EQ((*schedule)[0].query, 2u);
  EXPECT_EQ((*schedule)[0].count, 3);
  EXPECT_EQ((*schedule)[0].kind, FaultKind::kPermanentError);
  EXPECT_EQ((*schedule)[1].count, -1);  // '*' = unlimited
  EXPECT_EQ((*schedule)[1].kind, FaultKind::kDelay);
  EXPECT_EQ((*schedule)[2].kind, FaultKind::kDelay);
  EXPECT_DOUBLE_EQ((*schedule)[2].delay_seconds, 0.25);
}

TEST(ParseFaultScheduleTest, EmptyTextIsEmptySchedule) {
  auto schedule = ParseFaultSchedule("");
  ASSERT_TRUE(schedule.ok());
  EXPECT_TRUE(schedule->empty());
}

TEST(ParseFaultScheduleTest, RoundTripsThroughToString) {
  const std::string text =
      "dms.pack:*:1:transient,plan_cache.fill:4:*:permanent,"
      "pool.task_start:*:2:delay@0.5";
  auto schedule = ParseFaultSchedule(text);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  EXPECT_EQ(fault::FaultScheduleToString(*schedule), text);
}

TEST(ParseFaultScheduleTest, MalformedSpecsRejected) {
  const char* bad[] = {
      "dms.pack",                       // too few fields
      "dms.pack:*:1",                   // too few fields
      "dms.pack:*:1:transient:extra",   // too many fields
      "no.such.point:*:1:transient",    // unknown point
      "dms.pack:0:1:transient",         // query# must be >= 1
      "dms.pack:-2:1:transient",        // negative query#
      "dms.pack:abc:1:transient",       // non-numeric query#
      "dms.pack:*:0:transient",         // count must be >= 1
      "dms.pack:*:-3:transient",        // negative count
      "dms.pack:*:x:transient",         // non-numeric count
      "dms.pack:*:1:fatal",             // unknown kind
      "dms.pack:*:1:delay@",            // empty delay duration
      "dms.pack:*:1:delay@-1",          // negative delay
      "dms.pack:*:1:delay@2s",          // trailing garbage
  };
  for (const char* text : bad) {
    auto schedule = ParseFaultSchedule(text);
    EXPECT_FALSE(schedule.ok()) << text;
    if (!schedule.ok()) {
      EXPECT_EQ(schedule.status().code(), StatusCode::kInvalidArgument) << text;
    }
  }
}

TEST(StatusTest, TransientCodeAndFactory) {
  Status s = Status::Transient("node hiccup");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTransient);
  EXPECT_NE(s.ToString().find("transient"), std::string::npos);
}

TEST_F(FaultRegistryTest, AllPointsAreKnownAndNonEmpty) {
  EXPECT_FALSE(FaultRegistry::AllPoints().empty());
  for (const std::string& p : FaultRegistry::AllPoints()) {
    EXPECT_TRUE(FaultRegistry::IsKnownPoint(p)) << p;
  }
  EXPECT_FALSE(FaultRegistry::IsKnownPoint("no.such.point"));
}

TEST_F(FaultRegistryTest, UnarmedCheckIsFree) {
  EXPECT_FALSE(FaultRegistry::Armed());
  // The convenience helper skips the registry entirely when unarmed — no
  // hit is recorded.
  EXPECT_TRUE(fault::Check("dms.pack").ok());
  EXPECT_EQ(FaultRegistry::Global().HitCount("dms.pack"), 0u);
}

TEST_F(FaultRegistryTest, FiresAndBurnsDownCount) {
  FaultRegistry& reg = FaultRegistry::Global();
  uint64_t token = reg.Arm({{"dms.pack", 0, 2, FaultKind::kTransientError}});
  EXPECT_TRUE(FaultRegistry::Armed());

  Status first = reg.Check("dms.pack");
  EXPECT_EQ(first.code(), StatusCode::kTransient);
  EXPECT_NE(first.message().find("dms.pack"), std::string::npos);
  EXPECT_EQ(reg.Check("dms.pack").code(), StatusCode::kTransient);
  // Count exhausted: the point stays traversable but fires no more.
  EXPECT_TRUE(reg.Check("dms.pack").ok());
  EXPECT_EQ(reg.HitCount("dms.pack"), 3u);
  EXPECT_EQ(reg.InjectedCount("dms.pack"), 2u);
  // Other points are unaffected.
  EXPECT_TRUE(reg.Check("dms.unpack").ok());

  reg.Disarm(token);
  EXPECT_FALSE(FaultRegistry::Armed());
}

TEST_F(FaultRegistryTest, PermanentAndDelayKinds) {
  FaultRegistry& reg = FaultRegistry::Global();
  FaultSpec delay{"dms.network", 0, 1, FaultKind::kDelay};
  delay.delay_seconds = 0;  // keep the test instant
  uint64_t token = reg.Arm(
      {{"dms.unpack", 0, 1, FaultKind::kPermanentError}, delay});
  EXPECT_EQ(reg.Check("dms.unpack").code(), StatusCode::kExecutionError);
  // Delays perturb timing, not results: Check returns OK.
  EXPECT_TRUE(reg.Check("dms.network").ok());
  EXPECT_EQ(reg.InjectedCount("dms.network"), 1u);
  reg.Disarm(token);
}

TEST_F(FaultRegistryTest, UnlimitedCountNeverBurnsOut) {
  FaultRegistry& reg = FaultRegistry::Global();
  uint64_t token = reg.Arm({{"dms.pack", 0, -1, FaultKind::kTransientError}});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(reg.Check("dms.pack").code(), StatusCode::kTransient);
  }
  EXPECT_EQ(reg.InjectedCount("dms.pack"), 10u);
  reg.Disarm(token);
}

TEST_F(FaultRegistryTest, QueryScopedSpecFiresOnlyInItsQuery) {
  FaultRegistry& reg = FaultRegistry::Global();
  // Fire during the second query after arming, never before or after.
  uint64_t token = reg.Arm({{"dms.pack", 2, -1, FaultKind::kTransientError}});

  reg.BeginQuery();  // query 1
  EXPECT_TRUE(reg.Check("dms.pack").ok());
  reg.BeginQuery();  // query 2
  EXPECT_EQ(reg.Check("dms.pack").code(), StatusCode::kTransient);
  reg.BeginQuery();  // query 3
  EXPECT_TRUE(reg.Check("dms.pack").ok());

  reg.Disarm(token);
}

TEST_F(FaultRegistryTest, MetricsHookSeesEveryFiring) {
  FaultRegistry& reg = FaultRegistry::Global();
  std::vector<std::pair<std::string, FaultKind>> firings;
  reg.SetMetricsHook([&](const std::string& point, FaultKind kind) {
    firings.emplace_back(point, kind);
  });
  uint64_t token = reg.Arm({{"dms.pack", 0, 1, FaultKind::kTransientError}});
  (void)reg.Check("dms.pack");
  (void)reg.Check("dms.pack");  // burnt out: no second firing
  reg.Disarm(token);
  reg.SetMetricsHook(nullptr);
  ASSERT_EQ(firings.size(), 1u);
  EXPECT_EQ(firings[0].first, "dms.pack");
  EXPECT_EQ(firings[0].second, FaultKind::kTransientError);
}

TEST_F(FaultRegistryTest, ScopedFaultsArmsAndDisarms) {
  {
    fault::ScopedFaults scoped(
        {{"dms.pack", 0, 1, FaultKind::kTransientError}});
    EXPECT_TRUE(FaultRegistry::Armed());
  }
  EXPECT_FALSE(FaultRegistry::Armed());
  {
    fault::ScopedFaults empty_scoped(FaultSchedule{});
    EXPECT_FALSE(FaultRegistry::Armed());  // empty schedule never arms
  }
}

// A query's own faults fire only on checks made for that query: on its
// thread and on the pool helpers of the batches it starts, never on a
// concurrent query's thread, whatever the process-wide query serial does.
TEST_F(FaultRegistryTest, ScopedFaultsFireOnlyInTheirQuery) {
  FaultRegistry& reg = FaultRegistry::Global();
  std::atomic<bool> armed{false}, other_done{false};
  Status other_pack, other_unpack;
  std::thread other([&] {
    while (!armed.load()) std::this_thread::yield();
    reg.BeginQuery();  // another query starting moves the serial
    other_pack = reg.Check("dms.pack");
    other_unpack = reg.Check("dms.unpack");
    other_done = true;
  });
  {
    fault::ScopedFaults scoped(
        {{"dms.pack", 1, -1, FaultKind::kPermanentError},
         {"dms.unpack", 0, -1, FaultKind::kTransientError}});
    EXPECT_NE(fault::CurrentScope(), 0u);
    reg.BeginQuery();
    armed = true;
    while (!other_done.load()) std::this_thread::yield();
    EXPECT_TRUE(other_pack.ok()) << other_pack.ToString();
    EXPECT_TRUE(other_unpack.ok()) << other_unpack.ToString();
    EXPECT_EQ(reg.Check("dms.pack").code(), StatusCode::kExecutionError);
    EXPECT_EQ(reg.Check("dms.unpack").code(), StatusCode::kTransient);
    // Pool helpers inherit the scope of the thread that started the batch.
    std::vector<StatusCode> codes(8);
    ThreadPool pool(4);
    pool.ParallelFor(8, [&](int i) {
      codes[static_cast<size_t>(i)] = reg.Check("dms.pack").code();
    });
    for (StatusCode code : codes) EXPECT_EQ(code, StatusCode::kExecutionError);
  }
  other.join();
  EXPECT_EQ(fault::CurrentScope(), 0u);
  EXPECT_FALSE(FaultRegistry::Armed());
}

TEST_F(FaultRegistryTest, ResetClearsEverything) {
  FaultRegistry& reg = FaultRegistry::Global();
  reg.Arm({{"dms.pack", 0, 1, FaultKind::kTransientError}});
  (void)reg.Check("dms.pack");
  reg.Reset();
  EXPECT_FALSE(FaultRegistry::Armed());
  EXPECT_EQ(reg.HitCount("dms.pack"), 0u);
  EXPECT_EQ(reg.InjectedCount("dms.pack"), 0u);
}

TEST(RetryPolicyTest, BackoffSequenceIsExponentialAndCapped) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.001;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.005;
  EXPECT_DOUBLE_EQ(policy.BackoffForAttempt(1), 0.001);
  EXPECT_DOUBLE_EQ(policy.BackoffForAttempt(2), 0.002);
  EXPECT_DOUBLE_EQ(policy.BackoffForAttempt(3), 0.004);
  EXPECT_DOUBLE_EQ(policy.BackoffForAttempt(4), 0.005);  // capped
  EXPECT_DOUBLE_EQ(policy.BackoffForAttempt(10), 0.005);
}

TEST(RetryPolicyTest, ClassifiesOnlyTransientAsRetryable) {
  RetryPolicy policy;
  EXPECT_TRUE(policy.IsRetryable(Status::Transient("hiccup")));
  EXPECT_FALSE(policy.IsRetryable(Status::OK()));
  EXPECT_FALSE(policy.IsRetryable(Status::ExecutionError("boom")));
  EXPECT_FALSE(policy.IsRetryable(Status::Internal("bug")));
  EXPECT_FALSE(policy.IsRetryable(Status::InvalidArgument("bad sql")));
}

TEST(RetryPolicyTest, SleepUsesInjectedClock) {
  RetryPolicy policy;
  std::vector<double> slept;
  policy.sleep_fn = [&](double s) { slept.push_back(s); };
  policy.Sleep(0.125);
  ASSERT_EQ(slept.size(), 1u);
  EXPECT_DOUBLE_EQ(slept[0], 0.125);
}

TEST(RunWithRetriesTest, TransientFailuresRetryUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  std::vector<double> slept;
  policy.sleep_fn = [&](double s) { slept.push_back(s); };
  int calls = 0;
  std::vector<std::pair<int, double>> retries;
  Status s = RunWithRetries(
      policy,
      [&]() -> Status {
        ++calls;
        return calls < 3 ? Status::Transient("hiccup") : Status::OK();
      },
      [&](int retry, double backoff) { retries.emplace_back(retry, backoff); });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(retries.size(), 2u);
  EXPECT_EQ(retries[0].first, 1);
  EXPECT_DOUBLE_EQ(retries[0].second, policy.BackoffForAttempt(1));
  EXPECT_EQ(retries[1].first, 2);
  EXPECT_DOUBLE_EQ(retries[1].second, policy.BackoffForAttempt(2));
  // The fake clock saw exactly the backoff sequence.
  ASSERT_EQ(slept.size(), 2u);
  EXPECT_DOUBLE_EQ(slept[0], policy.BackoffForAttempt(1));
  EXPECT_DOUBLE_EQ(slept[1], policy.BackoffForAttempt(2));
}

TEST(RunWithRetriesTest, ExhaustsAttemptsOnPersistentTransient) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.sleep_fn = [](double) {};
  int calls = 0;
  Status s = RunWithRetries(policy, [&]() -> Status {
    ++calls;
    return Status::Transient("still down");
  });
  EXPECT_EQ(s.code(), StatusCode::kTransient);
  EXPECT_EQ(calls, 3);
}

TEST(RunWithRetriesTest, PermanentFailureNeverRetries) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.sleep_fn = [](double) {};
  int calls = 0;
  Status s = RunWithRetries(policy, [&]() -> Status {
    ++calls;
    return Status::ExecutionError("corrupt");
  });
  EXPECT_EQ(s.code(), StatusCode::kExecutionError);
  EXPECT_EQ(calls, 1);
}

TEST(RunWithRetriesTest, MaxAttemptsFloorsAtOne) {
  RetryPolicy policy;
  policy.max_attempts = 0;  // degenerate config still runs the body once
  policy.sleep_fn = [](double) {};
  int calls = 0;
  Status s = RunWithRetries(policy, [&]() -> Status {
    ++calls;
    return Status::Transient("hiccup");
  });
  EXPECT_EQ(s.code(), StatusCode::kTransient);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace pdw
