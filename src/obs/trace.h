// Chrome/Perfetto trace-event recorder with three correlated timelines.
//
// The *simulated* track (pid 1) places every fetch, leaf task, write-back
// and reduction-combine span on its virtual processor (or NIC/NVLink
// channel) at its Simulator start/end times. Emission happens only from the
// deterministic retirement replay (and from the flushed host thread during
// setup), so the recorded sim-event sequence is bit-identical for any
// SPDISTAL_EXEC_THREADS. The *host* track (pid 2) records wall-clock spans
// (enqueue, plan build, worker execution, autosched phases, packing) via the
// OBS_SPAN RAII macro; those naturally differ run to run. The *measured*
// track (pid 3) records the wall-clock duration of each leaf point-task
// body with {kernel, nnz, flops, bytes, sim_s, wall_s} args — the profiling
// signal the calibration store (obs/calibrate.h) learns rates from.
//
// Flow events (ph "s"/"t"/"f") link each host enqueue span to its
// plan-build and to its simulated and measured leaf spans, so one click in
// the Perfetto UI traces a launch end-to-end across the three processes.
//
// Long-running processes stay constant-memory: SPDISTAL_TRACE_RING=N keeps
// only the last N events per timeline (drop-oldest; drops are counted in
// obs.dropped_events and dangling flow ends are filtered at serialization,
// so the JSON stays well-formed).
//
// Sinks: $SPDISTAL_TRACE=out.json starts capture at process start and writes
// the file at exit; tests drive start()/json() directly. Every record is
// gated on obs::enabled() and capture being started — a disabled process
// pays one relaxed atomic load per instrumentation point and records
// nothing. Open the output at https://ui.perfetto.dev or chrome://tracing.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace spdistal::obs {

// Wall-clock microseconds since process start (steady clock).
double wall_us();

// Trace pids of the three timelines.
inline constexpr int kSimPid = 1;
inline constexpr int kHostPid = 2;
inline constexpr int kMeasPid = 3;

// Simulated-track tid layout: virtual processors use their Simulator slot
// directly; communication channels get per-node tracks above these bases.
inline constexpr int kNicTidBase = 10000;     // NIC of node n -> 10000 + n
inline constexpr int kNvlinkTidBase = 20000;  // NVLink of node n -> 20000 + n

class TraceRecorder {
 public:
  static TraceRecorder& global();

  // True when events are being recorded (obs enabled AND capture started).
  bool active() const {
    return capturing_.load(std::memory_order_relaxed) && enabled();
  }

  // Begins a fresh capture (clears all buffers and flow ids).
  void start();
  void stop() { capturing_.store(false, std::memory_order_relaxed); }

  // A simulated-timeline complete span: [t0_s, t1_s] in virtual seconds on
  // track `tid`. Must only be called from deterministic contexts (the
  // serialized retirement chain, or the host thread with the runtime
  // drained) — the recorded order is part of the bit-identical contract.
  void sim_span(int tid, const char* cat, const std::string& name,
                double t0_s, double t1_s, const std::string& args_json = "");
  // Names a simulated track ("node0/CPU", "node2/NIC"). First writer wins.
  void name_sim_track(int tid, const std::string& name);

  // A host-timeline complete span at wall-clock [ts_us, ts_us + dur_us] on
  // the calling thread's track.
  void host_span(const char* cat, const std::string& name, double ts_us,
                 double dur_us);
  // A zero-duration host marker.
  void host_instant(const char* cat, const std::string& name);
  // A counter-track sample (ph:"C"): Perfetto renders successive samples of
  // the same `name` as a filled line graph (executor queue depth,
  // outstanding tasks). Samples live on host tid 0 so one graph aggregates
  // values from every thread. Never ring-dropped preferentially: counters
  // are the always-on signal.
  void host_counter(const char* cat, const char* name, int64_t value);
  // Names the calling thread's host track ("main", "worker-3").
  void name_host_thread(const std::string& name);

  // A measured-timeline (pid 3) complete span on the calling thread's
  // track: the wall-clock execution of one leaf point-task body.
  void meas_span(const char* cat, const std::string& name, double ts_us,
                 double dur_us, const std::string& args_json = "");

  // --- flow events -----------------------------------------------------------
  // Mints `n` consecutive flow ids (>= 1); ids are allocated on the host
  // thread in submission order, so sim-track flow ends are deterministic.
  uint64_t alloc_flow_ids(uint64_t n);
  // Flow start ("s") / step ("t") at the current wall time on the calling
  // thread's host track.
  void host_flow(char ph, uint64_t id, const char* cat,
                 const std::string& name);
  // Flow end ("f", binding point "e") on simulated track `tid` at virtual
  // time `t_s`. Deterministic-context rules of sim_span apply.
  void sim_flow_end(uint64_t id, int tid, const char* cat,
                    const std::string& name, double t_s);
  // Flow end on the calling thread's measured track at wall time `ts_us`.
  void meas_flow_end(uint64_t id, const char* cat, const std::string& name,
                     double ts_us);

  // --- bounded recording -----------------------------------------------------
  // Keeps only the last `n` events per timeline (0 = unbounded). Dropped
  // events bump obs.dropped_events; serialization filters flow steps/ends
  // whose start was dropped, so the JSON stays well-formed.
  void set_ring(size_t n) { ring_.store(n, std::memory_order_relaxed); }
  size_t ring() const { return ring_.load(std::memory_order_relaxed); }

  // Total events recorded in the current capture (0 when disabled).
  size_t events() const;
  // The raw simulated-track event lines, in emission order — the
  // byte-identity surface tests compare across worker counts.
  std::vector<std::string> sim_events() const;
  // Serializes the capture as a Chrome trace-event JSON document (one event
  // per line; simulated events precede host events precede measured events).
  std::string json() const;
  bool write(const std::string& path) const;

 private:
  TraceRecorder();

  // One recorded event: the rendered line plus the flow identity needed to
  // filter dangling flow steps/ends after ring-buffer drops.
  struct Event {
    std::string line;
    uint64_t flow = 0;  // 0 = not a flow event
    char ph = 0;        // 's' | 't' | 'f' for flow events
  };
  using Buffer = std::deque<Event>;

  // Appends to `buf` under mu_, honoring the ring bound.
  void push(Buffer& buf, Event e);

  // Stable small tid for the calling thread on the host timeline.
  int host_tid();

  std::atomic<bool> capturing_{false};
  std::atomic<size_t> ring_{0};
  std::atomic<uint64_t> next_flow_id_{1};
  mutable std::mutex mu_;
  Buffer sim_events_;
  Buffer host_events_;
  Buffer meas_events_;
  std::map<int, std::string> sim_track_names_;
  std::map<int, std::string> host_thread_names_;
  int next_host_tid_ = 0;
};

// RAII wall-clock span on the host timeline. Constructing with a disabled
// recorder costs one relaxed atomic load and records nothing.
class Span {
 public:
  Span(const char* cat, const char* name) {
    if (TraceRecorder::global().active()) begin(cat, name);
  }
  // The string overload skips empty names, so call sites can gate the span
  // on their own condition by passing "" (see Runtime::execute).
  Span(const char* cat, std::string name) {
    if (!name.empty() && TraceRecorder::global().active()) {
      begin(cat, std::move(name));
    }
  }
  ~Span() {
    if (live_) {
      TraceRecorder::global().host_span(cat_, name_, t0_, wall_us() - t0_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* cat, std::string name) {
    live_ = true;
    cat_ = cat;
    name_ = std::move(name);
    t0_ = wall_us();
  }
  bool live_ = false;
  const char* cat_ = "";
  std::string name_;
  double t0_ = 0;
};

#define SPD_OBS_CONCAT2(a, b) a##b
#define SPD_OBS_CONCAT(a, b) SPD_OBS_CONCAT2(a, b)
// Scoped host-timeline span: OBS_SPAN("runtime", "execute").
#define OBS_SPAN(...) \
  ::spdistal::obs::Span SPD_OBS_CONCAT(obs_span_, __LINE__)(__VA_ARGS__)

}  // namespace spdistal::obs
