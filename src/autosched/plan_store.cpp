#include "autosched/plan_store.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <utility>

#include "common/knobs.h"
#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/persist.h"

namespace spdistal::autosched {

namespace {

// v2 added the per-entry "used" stamp (last-used LRU clock) that
// oldest-first eviction sorts by. v1 documents still load: their entries
// simply carry stamp 0, making them the first to evict.
constexpr int kSchemaVersion = 2;
constexpr int kOldestReadableVersion = 1;

std::atomic<bool> g_enabled{true};
std::atomic<double> g_fuzz{0.0};
std::atomic<int64_t> g_store_max{0};  // 0 = uncapped
std::once_flag g_env_once;

const std::string& env_path() {
  return knobs::get(knobs::Knob::PlanStore).path;
}

// ---- JSON writing -----------------------------------------------------------

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          out += strprintf("\\u%04x", ch);
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

// ---- JSON reading -----------------------------------------------------------
//
// A minimal cursor parser instead of the calibration store's field scanner:
// plan keys embed format signatures (braces, brackets, quotes-worth of
// punctuation), so entry boundaries can only be found with full string
// awareness. Structural errors poison the cursor and reject the whole
// document; a well-formed entry with unusable content is skipped alone.

struct Cursor {
  const std::string& s;
  size_t p = 0;
  bool ok = true;

  void ws() {
    while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) {
      ++p;
    }
  }
  bool peek(char c) {
    ws();
    return p < s.size() && s[p] == c;
  }
  bool eat(char c) {
    if (peek(c)) {
      ++p;
      return true;
    }
    ok = false;
    return false;
  }

  std::string string() {
    std::string out;
    if (!eat('"')) return out;
    while (p < s.size()) {
      const char ch = s[p++];
      if (ch == '"') return out;
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (p >= s.size()) break;
      const char esc = s[p++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (p + 4 > s.size()) {
            ok = false;
            return out;
          }
          const long code = std::strtol(s.substr(p, 4).c_str(), nullptr, 16);
          p += 4;
          // Keys only ever escape control characters; anything wider is
          // replaced, not reconstructed.
          out += code > 0 && code < 256 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          ok = false;
          return out;
      }
    }
    ok = false;  // unterminated
    return out;
  }

  double number() {
    ws();
    char* end = nullptr;
    const double v = std::strtod(s.c_str() + p, &end);
    if (end == s.c_str() + p) {
      ok = false;
      return 0;
    }
    p = static_cast<size_t>(end - s.c_str());
    return v;
  }

  void skip_value() {
    ws();
    if (p >= s.size()) {
      ok = false;
      return;
    }
    const char c = s[p];
    if (c == '"') {
      string();
    } else if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      eat(c);
      if (peek(close)) {
        eat(close);
        return;
      }
      while (ok) {
        if (c == '{') {
          string();
          if (!eat(':')) return;
        }
        skip_value();
        if (peek(',')) {
          eat(',');
          continue;
        }
        eat(close);
        return;
      }
    } else if (c == 't' || c == 'f' || c == 'n') {
      while (p < s.size() &&
             std::isalpha(static_cast<unsigned char>(s[p]))) {
        ++p;
      }
    } else {
      number();
    }
  }
};

// Parses one plan entry object. Returns false (entry skipped) if required
// fields are missing or its content is from a future build; structural
// damage poisons the cursor instead.
bool parse_entry(Cursor& c, StoredPlan* e) {
  if (!c.eat('{')) return false;
  bool have_key = false;
  bool have_sig = false;
  std::string unit;
  if (c.peek('}')) {
    c.eat('}');
    return false;
  }
  while (c.ok) {
    const std::string f = c.string();
    if (!c.eat(':')) return false;
    Recipe& r = e->plan.recipe;
    if (f == "key") {
      e->structural = c.string();
      have_key = true;
    } else if (f == "sig") {
      e->sig = c.string();
      have_sig = true;
    } else if (f == "cost") {
      e->plan.cost = c.number();
    } else if (f == "used") {
      e->plan.used->store(static_cast<int64_t>(c.number()),
                          std::memory_order_relaxed);
    } else if (f == "pos") {
      r.position_space = c.number() != 0;
    } else if (f == "pieces") {
      r.pieces = static_cast<int>(c.number());
    } else if (f == "py") {
      r.pieces_y = static_cast<int>(c.number());
    } else if (f == "pz") {
      r.pieces_z = static_cast<int>(c.number());
    } else if (f == "fuse") {
      r.fuse_depth = static_cast<int>(c.number());
    } else if (f == "split") {
      r.split_tensor = c.string();
    } else if (f == "comm") {
      r.communicate_all = c.number() != 0;
    } else if (f == "unit") {
      unit = c.string();
    } else {
      c.skip_value();
    }
    if (c.peek(',')) {
      c.eat(',');
      continue;
    }
    c.eat('}');
    break;
  }
  if (!c.ok || !have_key || !have_sig) return false;
  auto fps = data::parse_fingerprints(e->sig);
  if (!fps) return false;
  e->plan.fps = std::move(*fps);
  if (!unit.empty()) {
    const auto u = sched::parse_parallel_unit(unit);
    if (!u) return false;
    e->plan.recipe.unit = *u;
  }
  return true;
}

void init_from_env() {
  g_fuzz.store(knobs::get(knobs::Knob::PlanFuzz).real,
               std::memory_order_relaxed);
  g_store_max.store(knobs::get(knobs::Knob::PlanStoreMax).integer,
                    std::memory_order_relaxed);
  if (!knobs::get(knobs::Knob::PlanStore).set) return;
  load_plan_store(env_path());  // absent file on cold start is fine
  std::atexit([] {
    if (!g_enabled.load(std::memory_order_relaxed)) return;
    if (!save_plan_store(env_path())) {
      std::fprintf(stderr, "spdistal: failed to write plan store to %s\n",
                   env_path().c_str());
    }
  });
}

}  // namespace

bool plan_store_enabled() {
  std::call_once(g_env_once, init_from_env);
  return g_enabled.load(std::memory_order_relaxed);
}

void set_plan_store(bool on) {
  std::call_once(g_env_once, init_from_env);
  g_enabled.store(on, std::memory_order_relaxed);
}

double plan_fuzz() {
  std::call_once(g_env_once, init_from_env);
  return g_fuzz.load(std::memory_order_relaxed);
}

void set_plan_fuzz(double tolerance) {
  std::call_once(g_env_once, init_from_env);
  g_fuzz.store(tolerance, std::memory_order_relaxed);
}

int64_t plan_store_max() {
  std::call_once(g_env_once, init_from_env);
  return g_store_max.load(std::memory_order_relaxed);
}

void set_plan_store_max(int64_t cap) {
  std::call_once(g_env_once, init_from_env);
  g_store_max.store(cap, std::memory_order_relaxed);
}

std::string plan_store_json(const std::vector<StoredPlan>& entries) {
  std::string out =
      strprintf("{\n  \"version\": %d,\n  \"plans\": [", kSchemaVersion);
  bool first = true;
  for (const StoredPlan& e : entries) {
    out += first ? "\n" : ",\n";
    first = false;
    const Recipe& r = e.plan.recipe;
    out += "    {\"key\": ";
    append_escaped(out, e.structural);
    out += ", \"sig\": ";
    append_escaped(out, e.sig);
    out += strprintf(
        ", \"cost\": %.17g, \"used\": %lld, \"pos\": %d, \"pieces\": %d, "
        "\"py\": %d, \"pz\": %d, \"fuse\": %d",
        e.plan.cost,
        static_cast<long long>(
            e.plan.used->load(std::memory_order_relaxed)),
        r.position_space ? 1 : 0, r.pieces, r.pieces_y, r.pieces_z,
        r.fuse_depth);
    out += ", \"split\": ";
    append_escaped(out, r.split_tensor);
    out += strprintf(", \"comm\": %d", r.communicate_all ? 1 : 0);
    out += ", \"unit\": ";
    append_escaped(out,
                   r.unit ? sched::parallel_unit_name(*r.unit) : "");
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::vector<StoredPlan> parse_plan_store(const std::string& doc) {
  std::vector<StoredPlan> out;
  Cursor c{doc};
  if (!c.eat('{')) return {};
  bool version_ok = false;
  if (c.peek('}')) return {};  // no version field -> reject
  while (c.ok) {
    const std::string field = c.string();
    if (!c.eat(':')) break;
    if (field == "version") {
      const int v = static_cast<int>(c.number());
      if (v < kOldestReadableVersion || v > kSchemaVersion) return {};
      version_ok = true;
    } else if (field == "plans") {
      if (!c.eat('[')) break;
      if (c.peek(']')) {
        c.eat(']');
      } else {
        while (c.ok) {
          StoredPlan e;
          const bool valid = parse_entry(c, &e);
          if (!c.ok) break;
          if (valid) out.push_back(std::move(e));
          if (c.peek(',')) {
            c.eat(',');
            continue;
          }
          c.eat(']');
          break;
        }
      }
    } else {
      c.skip_value();
    }
    if (c.peek(',')) {
      c.eat(',');
      continue;
    }
    c.eat('}');
    break;
  }
  if (!c.ok || !version_ok) return {};
  return out;
}

size_t load_plan_store(const std::string& path) {
  std::string doc;
  if (!obs::read_text_file(path, &doc)) return 0;
  const std::vector<StoredPlan> entries = parse_plan_store(doc);
  if (entries.empty()) return 0;
  return PlanCache::global().insert_stored(entries);
}

bool save_plan_store(const std::string& path) {
  std::vector<StoredPlan> merged = PlanCache::global().entries();
  std::set<std::string> have;
  for (const StoredPlan& e : merged) {
    have.insert(e.structural + PlanKey::kSep + e.sig);
  }
  // Union with what concurrent writers persisted since we loaded: our
  // entries win on collisions, theirs ride along.
  std::string doc;
  if (obs::read_text_file(path, &doc)) {
    for (StoredPlan& e : parse_plan_store(doc)) {
      if (have.insert(e.structural + PlanKey::kSep + e.sig).second) {
        merged.push_back(std::move(e));
      }
    }
  }
  // Fleet GC: the file otherwise grows monotonically across every process
  // that ever touched it. Under SPDISTAL_PLAN_STORE_MAX, keep the `cap`
  // most recently used entries and evict the rest oldest-first; stamp ties
  // (v1 entries all carry 0) break by key so the surviving set is
  // deterministic regardless of merge order.
  const int64_t cap = plan_store_max();
  if (cap > 0 && static_cast<int64_t>(merged.size()) > cap) {
    std::stable_sort(
        merged.begin(), merged.end(),
        [](const StoredPlan& a, const StoredPlan& b) {
          const int64_t ua = a.plan.used->load(std::memory_order_relaxed);
          const int64_t ub = b.plan.used->load(std::memory_order_relaxed);
          if (ua != ub) return ua > ub;
          if (a.structural != b.structural) {
            return a.structural < b.structural;
          }
          return a.sig < b.sig;
        });
    obs::Metrics::global().counter("plan_store.evicted").add(
        static_cast<int64_t>(merged.size()) - cap);
    merged.resize(static_cast<size_t>(cap));
  }
  return obs::write_text_file_atomic(path, plan_store_json(merged));
}

}  // namespace spdistal::autosched
