// The library's SPDISTAL_* environment knobs: one table, parsed in one
// place. README.md lists the same names and ranges.
//
// One rule for every knob: unset and empty mean "use the default"; a value
// that does not parse, or parses outside the knob's range, prints one
// stderr line naming the knob and also uses the default. The environment is
// read once, at the first query, so setting a variable after that has no
// effect.
#pragma once

#include <cstdint>
#include <string>

namespace spdistal::knobs {

// One entry per SPDISTAL_* variable; knobs.cpp holds each one's name, type
// and range.
enum class Knob : uint8_t {
  ExecThreads,
  Obs,
  Trace,
  Metrics,
  TraceRing,
  Calib,
  Verify,
  VerifySample,
  PlanStore,
  PlanStoreMax,
  PlanFuzz,
};
inline constexpr int kNumKnobs = static_cast<int>(Knob::PlanFuzz) + 1;

// The environment variable behind `k`.
const char* name(Knob k);

// A parsed knob. `set` is false when the variable is unset, empty or
// invalid; the caller then uses its default. Flags and integers land in
// `integer`, reals in `real`, paths in `path`.
struct Value {
  bool set = false;
  int64_t integer = 0;
  double real = 0.0;
  std::string path;
};

// Parses `raw` (nullptr = unset) as knob `k`. An invalid value yields an
// unset Value and, when `error` is non-null, the one-line message.
Value parse(Knob k, const char* raw, std::string* error = nullptr);

// The process-wide value of `k`: all knobs are read from the environment
// and parsed at the first call; invalid ones are reported on stderr then.
const Value& get(Knob k);

}  // namespace spdistal::knobs
