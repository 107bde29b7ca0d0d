// Observability session + end-of-run structured report (src/obs/).
//
// A Session bundles the three sinks one run or sweep emits through:
//
//   metrics()  — deterministic simulated-quantity metrics (instruction and
//                cache counters federated from the StatSet exports, the
//                miss-latency histogram). Byte-identical across --threads
//                values: counters sum, gauges max, histogram buckets add,
//                all order-independent.
//   timing()   — host wall-clock metrics (sweep timers, per-job execute
//                and audit per-sample histograms). Machine-dependent by
//                nature; render_report() groups them in one "timing"
//                section that strip_report_timing() removes wholesale, so
//                the deterministic remainder golden-pins byte-identically.
//   trace()    — the Chrome trace-event timeline (obs/trace_event.h).
//   progress() — stderr-only sweep progress (jobs done/total, ETA, worker
//                utilization). Never writes to stdout, so --json stdout
//                byte-identity is preserved by construction.
//
// Instrumentation sites reach the active session through session(), a
// process-global installed by the driver that owns it (sempe_bench,
// sempe_run). A null session costs each site one pointer test; the
// pipeline hot loop pays nothing at all (the histogram hook is compiled
// out, see pipeline::Pipeline::process_impl).
#pragma once

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/trace_event.h"

namespace sempe::obs {

/// Stderr sweep-progress meter: rate-limited "done/total, ETA, worker
/// utilization" lines. All output goes to stderr — never stdout.
class ProgressMeter {
 public:
  void start(usize total_jobs, usize workers);
  /// One job finished; busy_ns is its execute time (for utilization).
  void tick(u64 busy_ns);
  /// Print the final line (unconditionally) and a trailing newline.
  void finish();

 private:
  void print_locked(bool final_line);

  std::mutex mu_;
  usize total_ = 0;
  usize workers_ = 1;
  usize done_ = 0;
  u64 busy_ns_ = 0;
  u64 epoch_ns_ = 0;
  u64 last_print_ns_ = 0;
  bool started_ = false;
};

class Session {
 public:
  struct Options {
    bool metrics = false;
    bool trace = false;
    bool progress = false;
    usize trace_capacity = 1 << 14;  // events per thread ring
  };

  explicit Session(const Options& opt);

  /// True when the deterministic metric registry is collecting; sites
  /// skip export/import work entirely when it is off.
  bool metrics_enabled() const { return metrics_enabled_; }
  MetricRegistry& metrics() { return metrics_; }
  MetricRegistry& timing() { return timing_; }
  /// nullptr when tracing is disabled.
  TraceSession* trace() { return trace_.get(); }
  /// nullptr when progress reporting is disabled.
  ProgressMeter* progress() { return progress_.get(); }

 private:
  bool metrics_enabled_;
  MetricRegistry metrics_;
  MetricRegistry timing_;
  std::unique_ptr<TraceSession> trace_;
  std::unique_ptr<ProgressMeter> progress_;
};

/// The active session (nullptr when observability is off). Install before
/// spawning sweep workers; uninstall (set nullptr) before tearing the
/// session down.
Session* session();
void set_session(Session* s);

/// RAII installer for tests and tools.
class ScopedSession {
 public:
  explicit ScopedSession(Session* s) { set_session(s); }
  ~ScopedSession() { set_session(nullptr); }
  ScopedSession(const ScopedSession&) = delete;
  ScopedSession& operator=(const ScopedSession&) = delete;
};

/// Render the end-of-run structured report (--metrics-out): a meta
/// header, the host "timing" section, then the deterministic "metrics"
/// section (counters, gauges, histograms). The timing section comes
/// first so strip_report_timing() leaves a valid JSON document behind.
std::string render_report(const std::string& experiment, Session& s);

/// Drop the whole "timing" section from a render_report() document,
/// leaving the deterministic remainder for golden pinning and
/// byte-comparison across --threads values or hosts.
std::string strip_report_timing(const std::string& json);

}  // namespace sempe::obs
