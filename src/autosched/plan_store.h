// The persistent plan service: serialization and file IO for the global
// PlanCache, so thousands of sibling processes compiling the same handful
// of (expression, format, machine, sparsity) shapes pay for one search.
//
// Env knobs:
//   SPDISTAL_PLAN_STORE=path  load the store into the cache at first use
//                             (entries marked from_store), merge + rewrite
//                             it atomically at exit. A warm process then
//                             compiles with zero searches.
//   SPDISTAL_PLAN_FUZZ=tol    fuzzy-tier tolerance in [0, 1]: serve the
//                             nearest fingerprint whose distance is <= tol
//                             when the exact key misses. Default 0 (exact
//                             only).
//   SPDISTAL_PLAN_STORE_MAX=N cap the file at N entries: the save-time
//                             merge keeps the N most recently used plans
//                             (per-entry "used" stamps) and evicts the rest
//                             oldest-first, so a fleet-shared file stops
//                             growing monotonically. Default 0 (uncapped).
//
// The on-disk document is versioned JSON (schema v2; v1 documents — which
// predate the "used" stamp — still load, their entries stamped 0 and thus
// first in line for eviction), modeled on the calibration store: unknown
// schema versions and corrupt documents are rejected wholesale (never
// partially applied), and writers re-read, union, and tmp+rename so
// concurrent processes sharing one file lose no entries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "autosched/cache.h"

namespace spdistal::autosched {

// Process-wide switch for the plan service (stored entries, fuzzy tier, and
// the exit-time save). Lazily reads the env knobs on first call.
// set_plan_store(false) restores bit-identical searched schedules: only
// plans searched in this process are served, exactly.
bool plan_store_enabled();
void set_plan_store(bool on);

// Fuzzy-tier tolerance (see SPDISTAL_PLAN_FUZZ above).
double plan_fuzz();
void set_plan_fuzz(double tolerance);

// Save-time entry cap (see SPDISTAL_PLAN_STORE_MAX above); 0 = uncapped.
int64_t plan_store_max();
void set_plan_store_max(int64_t cap);

// Versioned JSON codec. parse_plan_store returns an empty vector for a
// corrupt document or an unknown schema version.
std::string plan_store_json(const std::vector<StoredPlan>& entries);
std::vector<StoredPlan> parse_plan_store(const std::string& doc);

// Loads `path` into PlanCache::global() (entries marked from_store; already
// -present keys are kept). Returns the number of entries merged in; 0 for a
// missing, corrupt, or version-mismatched file.
size_t load_plan_store(const std::string& path);

// Re-reads `path`, unions it with the in-memory entries (in-memory wins on
// key collisions, disk-only entries from concurrent writers ride along),
// and rewrites atomically.
bool save_plan_store(const std::string& path);

}  // namespace spdistal::autosched
