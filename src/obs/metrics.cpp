#include "obs/metrics.h"

#include <bit>
#include <cstdlib>
#include <sstream>

#include "common/knobs.h"

namespace spdistal::obs {

namespace {

// Resolved once at first use; set_enabled() overrides afterwards.
std::atomic<bool> g_enabled{false};

bool enabled_from_env() {
  const knobs::Value& obs = knobs::get(knobs::Knob::Obs);
  if (obs.set) return obs.integer != 0;
  // Unset: observability is on exactly when a sink asks for output.
  return knobs::get(knobs::Knob::Trace).set ||
         knobs::get(knobs::Knob::Metrics).set;
}

std::atomic<bool> g_enabled_init{false};

// JSON string escaping for metric/event names (quotes, backslashes,
// control characters).
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Doubles rendered with enough digits to round-trip, but as plain decimals
// (python -m json.tool friendly).
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string s(buf);
  if (s == "inf") return "1e308";
  if (s == "-inf") return "-1e308";
  if (s == "nan" || s == "-nan") return "0";
  return s;
}

}  // namespace

bool enabled() {
  if (!g_enabled_init.load(std::memory_order_acquire)) {
    g_enabled.store(enabled_from_env(), std::memory_order_relaxed);
    g_enabled_init.store(true, std::memory_order_release);
  }
  return g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  enabled();  // ensure env init happened so it cannot overwrite us
  g_enabled.store(on, std::memory_order_relaxed);
}

void Histogram::record(int64_t sample) {
  if (!enabled()) return;
  const uint64_t u = sample <= 0 ? 0 : static_cast<uint64_t>(sample);
  const int b = u == 0 ? 0 : 64 - std::countl_zero(u);
  buckets_[static_cast<size_t>(b < kBuckets ? b : kBuckets - 1)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(static_cast<double>(sample), std::memory_order_relaxed);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Metrics& Metrics::global() {
  // Leaked so instrumentation running during static destruction stays safe;
  // the $SPDISTAL_METRICS atexit dump below runs before that point.
  static Metrics* m = [] {
    auto* reg = new Metrics();
    if (knobs::get(knobs::Knob::Metrics).set && enabled()) {
      std::atexit([] {
        const std::string& path = knobs::get(knobs::Knob::Metrics).path;
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) return;
        const std::string doc = Metrics::global().json();
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fclose(f);
      });
    }
    return reg;
  }();
  return *m;
}

Counter& Metrics::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

CounterD& Metrics::counterd(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counterds_[name];
  if (slot == nullptr) slot = std::make_unique<CounterD>();
  return *slot;
}

Gauge& Metrics::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Metrics::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string Metrics::json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << escape(name)
       << "\": " << c->value();
    first = false;
  }
  for (const auto& [name, c] : counterds_) {
    os << (first ? "\n" : ",\n") << "    \"" << escape(name)
       << "\": " << num(c->value());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"" << escape(name)
       << "\": {\"value\": " << g->value() << ", \"max\": " << g->max()
       << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"" << escape(name)
       << "\": {\"count\": " << h->count() << ", \"sum\": " << num(h->sum())
       << ", \"buckets\": [";
    bool bfirst = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const int64_t c = h->bucket(b);
      if (c == 0) continue;
      // [bucket lower bound, count] pairs; bucket 0 holds zeros.
      os << (bfirst ? "" : ", ") << "[" << (b == 0 ? 0 : (1LL << (b - 1)))
         << ", " << c << "]";
      bfirst = false;
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

void Metrics::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, c] : counterds_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace spdistal::obs
