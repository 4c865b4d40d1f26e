#include "verify/verify.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>
#include <sstream>

#include "common/knobs.h"
#include "obs/metrics.h"
#include "runtime/touch_log.h"

namespace spdistal::verify {

namespace {

std::atomic<bool> g_enabled{false};
std::once_flag g_env_once;

std::atomic<uint64_t> g_plans_checked{0};
std::atomic<uint64_t> g_tasks_checked{0};
std::atomic<uint64_t> g_violations{0};
std::atomic<uint64_t> g_warnings{0};

std::atomic<uint64_t> g_audit_every{1};
std::atomic<uint64_t> g_audit_seq{0};

void init_from_env() {
  if (knobs::get(knobs::Knob::Verify).integer != 0) {
    g_enabled.store(true, std::memory_order_relaxed);
    rt::set_touch_logging(true);
  }
  const knobs::Value& every = knobs::get(knobs::Knob::VerifySample);
  if (every.set) {
    g_audit_every.store(static_cast<uint64_t>(every.integer),
                        std::memory_order_relaxed);
  }
}

const char* severity_name(Severity s) {
  return s == Severity::Error ? "error" : "warning";
}

// Each distinct warning message is logged to stderr once; repeats only bump
// the counter so a warm loop cannot flood the console.
void log_warning_once(const Violation& v) {
  static std::mutex mu;
  static std::set<std::string> seen;
  std::lock_guard<std::mutex> lk(mu);
  if (seen.insert(v.analysis + ":" + v.message).second) {
    std::fprintf(stderr, "[spdistal-verify] warning (%s): %s\n",
                 v.analysis.c_str(), v.message.c_str());
  }
}

}  // namespace

bool enabled() {
  std::call_once(g_env_once, init_from_env);
  return g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  std::call_once(g_env_once, init_from_env);
  g_enabled.store(on, std::memory_order_relaxed);
  rt::set_touch_logging(on);
}

uint64_t verify_sample() {
  std::call_once(g_env_once, init_from_env);
  return g_audit_every.load(std::memory_order_relaxed);
}

void set_verify_sample(uint64_t every) {
  std::call_once(g_env_once, init_from_env);
  g_audit_every.store(every == 0 ? 1 : every, std::memory_order_relaxed);
  g_audit_seq.store(0, std::memory_order_relaxed);
}

bool should_audit() {
  const uint64_t every = verify_sample();
  if (every <= 1) return true;
  return g_audit_seq.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

Stats stats() {
  Stats s;
  s.plans_checked = g_plans_checked.load(std::memory_order_relaxed);
  s.tasks_checked = g_tasks_checked.load(std::memory_order_relaxed);
  s.violations = g_violations.load(std::memory_order_relaxed);
  s.warnings = g_warnings.load(std::memory_order_relaxed);
  return s;
}

void reset_stats() {
  g_plans_checked.store(0, std::memory_order_relaxed);
  g_tasks_checked.store(0, std::memory_order_relaxed);
  g_violations.store(0, std::memory_order_relaxed);
  g_warnings.store(0, std::memory_order_relaxed);
}

void report(const Violation& v) {
  if (v.severity == Severity::Warning) {
    g_warnings.fetch_add(1, std::memory_order_relaxed);
    log_warning_once(v);
    return;
  }
  g_violations.fetch_add(1, std::memory_order_relaxed);
  obs::Metrics::global().counter("verify.violations").add();
  std::ostringstream os;
  os << "verify(" << v.analysis << "): " << v.message;
  throw VerifyError(os.str());
}

void note_plan_checked() {
  g_plans_checked.fetch_add(1, std::memory_order_relaxed);
  obs::Metrics::global().counter("verify.plans_checked").add();
}

void note_task_checked() {
  g_tasks_checked.fetch_add(1, std::memory_order_relaxed);
}

void note_violation() {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  obs::Metrics::global().counter("verify.violations").add();
}

std::string format_report(const std::vector<Violation>& vs) {
  std::ostringstream os;
  for (size_t i = 0; i < vs.size(); ++i) {
    if (i) os << "\n";
    os << "  [" << severity_name(vs[i].severity) << "] " << vs[i].analysis
       << ": " << vs[i].message;
  }
  return os.str();
}

}  // namespace spdistal::verify
