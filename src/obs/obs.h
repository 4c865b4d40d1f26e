// Umbrella header for the observability subsystem: the metrics registry
// (obs/metrics.h), the Perfetto trace recorder and OBS_SPAN macro
// (obs/trace.h), the profile-guided calibration store (obs/calibrate.h),
// and the env-controlled sinks.
//
// Environment knobs:
//   SPDISTAL_OBS=0|1          force observability off/on (default: on iff a
//                             sink below is configured)
//   SPDISTAL_TRACE=f.json     capture a Chrome/Perfetto trace, write at exit
//   SPDISTAL_METRICS=f.json   dump the metrics registry as JSON at exit
//   SPDISTAL_TRACE_RING=N     keep only the last N events per timeline
//                             (drop-oldest; constant-memory soak tracing)
//   SPDISTAL_CALIB=f.json     learn measured wall-per-flop/byte leaf rates;
//                             load at startup, merge + rewrite at exit
#pragma once

#include "obs/calibrate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
