#ifndef PDW_COMMON_FAULT_H_
#define PDW_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace pdw::fault {

/// What an armed fault does when its injection point is traversed.
enum class FaultKind {
  kTransientError,  ///< Status::Transient — retryable by RetryPolicy.
  kPermanentError,  ///< Status::ExecutionError — aborts the DSQL plan.
  kDelay,           ///< Sleeps delay_seconds, then continues normally.
};

/// Canonical lowercase name ("transient", "permanent", "delay").
const char* FaultKindToString(FaultKind kind);

/// One armed fault: fire up to `count` times at `point`, restricted to one
/// query when `query` is non-zero. In a query-scoped schedule
/// (QueryOptions::faults) both 0 and 1 mean the query that armed it.
struct FaultSpec {
  std::string point;   ///< Injection-point name (must be registered).
  uint64_t query = 0;  ///< 1-based query serial after arming; 0 = any query.
  int count = 1;       ///< Firings before the spec burns out; -1 = unlimited.
  FaultKind kind = FaultKind::kTransientError;
  double delay_seconds = 0.002;  ///< kDelay only.

  /// Renders the spec back into the PDW_FAULTS text form.
  std::string ToString() const;
};

/// The faults armed together by one PDW_FAULTS value or one QueryOptions.
using FaultSchedule = std::vector<FaultSpec>;

/// Parses "point:query#:count:kind" specs separated by ',' or ';'.
/// query# is a 1-based serial or '*' (any query); count a positive integer
/// or '*' (unlimited); kind one of transient | permanent | delay, where
/// delay takes an optional duration suffix "delay@<seconds>". Unknown
/// point names and malformed fields are InvalidArgument. Example:
///   PDW_FAULTS="dms.pack:*:1:transient,appliance.step.dispatch:2:1:permanent"
Result<FaultSchedule> ParseFaultSchedule(const std::string& text);

std::string FaultScheduleToString(const FaultSchedule& schedule);

/// Process-wide registry of named fault-injection points at the appliance's
/// distributed boundaries (step dispatch, DMS stages, temp-table DDL, plan
/// cache fill, pool task start). Deterministic by construction: a fault
/// fires if and only if an armed FaultSpec matches the point (and query
/// serial), and burns down its count on every firing — no randomness lives
/// here, so a seed that generated a schedule reproduces the exact failure.
///
/// Arming paths: the PDW_FAULTS environment variable (parsed once, armed
/// for the process lifetime; its query numbers count BeginQuery calls) and
/// QueryOptions::faults (armed by Appliance::Run for one query via
/// ScopedFaults; it fires only on checks made in that query's fault
/// scope, so concurrent queries never consume each other's faults).
///
/// Cost when nothing is armed: PDW_FAULT_POINT is one relaxed atomic load
/// and a never-taken branch — cheap enough to sit on DMS per-batch paths.
/// All methods are thread-safe.
class FaultRegistry {
 public:
  static FaultRegistry& Global();

  /// Every injection-point name compiled into the binary (the canonical
  /// list in fault.cc). The chaos coverage test asserts each one is
  /// traversed, so a dead site fails CI instead of rotting.
  static const std::vector<std::string>& AllPoints();
  static bool IsKnownPoint(const std::string& point);

  /// True while any schedule is armed — the fast-path gate of
  /// PDW_FAULT_POINT.
  static bool Armed() { return armed_flag_.load(std::memory_order_relaxed); }

  /// Arms a schedule and returns a token for Disarm. Specs with query > 0
  /// fire only during the query-th BeginQuery() after this arming.
  uint64_t Arm(FaultSchedule schedule);
  /// Arms a query-scoped schedule: it fires only on checks made while the
  /// calling thread's fault scope (see ScopeGuard) is the returned token.
  /// Specs with query 0 or 1 target that scope; larger query numbers never
  /// fire.
  uint64_t ArmScoped(FaultSchedule schedule);
  void Disarm(uint64_t token);

  /// Bumps the process-wide query serial that the query numbers of
  /// unscoped schedules (Arm) match against (called by Appliance::Run);
  /// returns the new serial.
  uint64_t BeginQuery();

  /// The slow path behind PDW_FAULT_POINT: records the traversal and, when
  /// an armed spec matches, fires it — returning the injected error status
  /// or sleeping out the injected delay.
  Status Check(const char* point);

  /// Traversals / firings per point since construction or Reset. Hits are
  /// recorded only while armed (the fast path skips Check entirely).
  uint64_t HitCount(const std::string& point) const;
  uint64_t InjectedCount(const std::string& point) const;
  std::map<std::string, uint64_t> HitCounts() const;

  /// Called as hook(point, kind) on every firing. Installed once by the
  /// appliance to mirror fault.injected.* into the obs metrics registry
  /// (pdw_common cannot depend on pdw_obs). Must be thread-safe.
  void SetMetricsHook(std::function<void(const std::string&, FaultKind)> hook);

  /// Drops every armed schedule and all counters, and rewinds the query
  /// serial. Tests only.
  void Reset();

 private:
  FaultRegistry() = default;
  uint64_t Arm(FaultSchedule schedule, bool scoped);

  struct ArmedSchedule {
    uint64_t token = 0;
    bool scoped = false;       ///< Matches by fault scope, not by serial.
    uint64_t base_serial = 0;  ///< Query serial when armed.
    FaultSchedule specs;
    std::vector<int> remaining;  ///< Unfired count per spec; -1 = unlimited.
  };

  static std::atomic<bool> armed_flag_;

  mutable std::mutex mu_;
  std::vector<ArmedSchedule> armed_;
  std::atomic<uint64_t> query_serial_{0};
  uint64_t next_token_ = 1;
  std::map<std::string, uint64_t> hits_;
  std::map<std::string, uint64_t> injected_;

  std::mutex hook_mu_;
  std::function<void(const std::string&, FaultKind)> hook_;
};

/// The calling thread's fault scope: the token of the query-scoped
/// schedule of the query this thread is working for, 0 for none.
uint64_t CurrentScope();

/// Sets the calling thread's fault scope until destruction, then restores
/// the previous one. ThreadPool helpers take the scope of the thread that
/// started their ParallelFor batch, so a query's checks on pool workers
/// (DMS stages, per-node step work) stay in its scope.
class ScopeGuard {
 public:
  explicit ScopeGuard(uint64_t scope);
  ~ScopeGuard();
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  uint64_t previous_;
};

/// Arms QueryOptions::faults for the lifetime of one Appliance::Run call,
/// scoped to that call: the calling thread (and the pool work it starts)
/// runs in the schedule's fault scope.
class ScopedFaults {
 public:
  explicit ScopedFaults(const FaultSchedule& schedule)
      : token_(schedule.empty() ? 0
                                : FaultRegistry::Global().ArmScoped(schedule)),
        scope_(token_) {}
  ~ScopedFaults() {
    if (token_ != 0) FaultRegistry::Global().Disarm(token_);
  }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;

 private:
  uint64_t token_;
  ScopeGuard scope_;
};

/// Convenience for call sites that handle the status themselves (per-node
/// lambdas, void pipeline stages): OK when nothing is armed or no spec
/// matches, else the injected error.
inline Status Check(const char* point) {
  return FaultRegistry::Armed() ? FaultRegistry::Global().Check(point)
                                : Status::OK();
}

}  // namespace pdw::fault

/// Marks a distributed boundary as fault-injectable inside a function
/// returning Status or Result<T>: traversal is free when nothing is armed,
/// and an armed matching fault returns its injected error to the caller.
#define PDW_FAULT_POINT(name)                                    \
  do {                                                           \
    if (::pdw::fault::FaultRegistry::Armed()) {                  \
      ::pdw::Status _pdw_fault_status =                          \
          ::pdw::fault::FaultRegistry::Global().Check(name);     \
      if (!_pdw_fault_status.ok()) return _pdw_fault_status;     \
    }                                                            \
  } while (false)

#endif  // PDW_COMMON_FAULT_H_
