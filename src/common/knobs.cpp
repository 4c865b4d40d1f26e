#include "common/knobs.h"

#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/str_util.h"

namespace spdistal::knobs {

namespace {

enum class Type : uint8_t { Flag, Int, Real, Path };

struct Spec {
  const char* name;
  Type type;
  double lo = 0;  // inclusive range of Int and Real knobs
  double hi = 0;
};

constexpr double kInt64Max =
    static_cast<double>(std::numeric_limits<int64_t>::max());

// Indexed by Knob.
constexpr std::array<Spec, kNumKnobs> kTable = {{
    {"SPDISTAL_EXEC_THREADS", Type::Int, 1, 64},
    {"SPDISTAL_OBS", Type::Flag},
    {"SPDISTAL_TRACE", Type::Path},
    {"SPDISTAL_METRICS", Type::Path},
    {"SPDISTAL_TRACE_RING", Type::Int, 0, kInt64Max},
    {"SPDISTAL_CALIB", Type::Path},
    {"SPDISTAL_VERIFY", Type::Flag},
    {"SPDISTAL_VERIFY_SAMPLE", Type::Int, 1, kInt64Max},
    {"SPDISTAL_PLAN_STORE", Type::Path},
    {"SPDISTAL_PLAN_STORE_MAX", Type::Int, 0, kInt64Max},
    {"SPDISTAL_PLAN_FUZZ", Type::Real, 0, 1},
}};

const Spec& spec(Knob k) { return kTable[static_cast<size_t>(k)]; }

// Whole-string numeric parse: no leading blanks, no trailing characters.
template <typename T>
bool parse_number(const char* s, T* out) {
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

const char* name(Knob k) { return spec(k).name; }

Value parse(Knob k, const char* raw, std::string* error) {
  Value v;
  if (raw == nullptr || raw[0] == '\0') return v;
  const Spec& s = spec(k);
  bool ok = true;
  switch (s.type) {
    case Type::Flag:
      ok = std::strcmp(raw, "0") == 0 || std::strcmp(raw, "1") == 0;
      v.integer = raw[0] == '1' ? 1 : 0;
      break;
    case Type::Int:
      ok = parse_number(raw, &v.integer) &&
           static_cast<double>(v.integer) >= s.lo &&
           static_cast<double>(v.integer) <= s.hi;
      break;
    case Type::Real:
      // The negated range test also rejects NaN.
      ok = parse_number(raw, &v.real) && v.real >= s.lo && v.real <= s.hi;
      break;
    case Type::Path:
      v.path = raw;
      break;
  }
  if (!ok) {
    if (error != nullptr) {
      const std::string range =
          s.type == Type::Flag   ? std::string("0 or 1")
          : s.type == Type::Real ? strprintf("a number in [%g, %g]", s.lo, s.hi)
          : s.hi == kInt64Max    ? strprintf("an integer >= %.0f", s.lo)
                                 : strprintf("an integer in [%.0f, %.0f]",
                                             s.lo, s.hi);
      *error = strprintf("spdistal: ignoring %s=\"%s\" (expected %s); using "
                         "the default",
                         s.name, raw, range.c_str());
    }
    return Value{};
  }
  v.set = true;
  return v;
}

const Value& get(Knob k) {
  // Leaked so exit-time hooks and static destructors can still read it.
  static const auto* values = [] {
    auto* out = new std::array<Value, kNumKnobs>();
    for (int i = 0; i < kNumKnobs; ++i) {
      const Knob knob = static_cast<Knob>(i);
      std::string error;
      (*out)[static_cast<size_t>(i)] =
          parse(knob, std::getenv(name(knob)), &error);
      if (!error.empty()) std::fprintf(stderr, "%s\n", error.c_str());
    }
    return out;
  }();
  return (*values)[static_cast<size_t>(k)];
}

}  // namespace spdistal::knobs
