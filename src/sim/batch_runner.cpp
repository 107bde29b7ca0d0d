#include "sim/batch_runner.h"

#include <cctype>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string_view>

// GCC 12's -O2 -fsanitize=address build reports -Wmaybe-uninitialized
// inside libstdc++'s own std::regex templates (a false positive in the
// library, not in this file). Suppress it for this one include only; the
// header stays out of batch_runner.h so no other translation unit needs it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <regex>
#pragma GCC diagnostic pop

#include "sim/job_key.h"
#include "sim/sweep_codec.h"
#include "util/check.h"
#include "util/decimal.h"
#include "util/fingerprint.h"
#include "workloads/attack.h"

namespace sempe::sim {

namespace {

void append_f(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_f(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int needed = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (needed > 0) {
    const usize old = out.size();
    out.resize(old + static_cast<usize>(needed) + 1);
    std::vsnprintf(out.data() + old, static_cast<usize>(needed) + 1, fmt, ap2);
    out.resize(old + static_cast<usize>(needed));  // drop the NUL
  }
  va_end(ap2);
}

// Labels are generated from enum names and numbers, but escape defensively
// so hand-built job labels cannot produce invalid JSON.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          append_f(out, "\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_kv_u64(std::string& out, const char* key, u64 v,
                   bool last = false) {
  append_f(out, "      \"%s\": %" PRIu64 "%s\n", key, v, last ? "" : ",");
}

void append_kv_f(std::string& out, const char* key, double v,
                 bool last = false) {
  append_f(out, "      \"%s\": %.6f%s\n", key, v, last ? "" : ",");
}

void append_kv_s(std::string& out, const char* key, const std::string& v,
                 bool last = false) {
  append_f(out, "      \"%s\": \"%s\"%s\n", key, json_escape(v).c_str(),
           last ? "" : ",");
}

// How an emitter maps point positions back to the (full) job list:
// run.indices. Sharded documents (count > 1) additionally carry the shard
// meta line and a per-point "_index" annotation, which is exactly the
// information merge_shard_json strips back out — an unsharded document
// never carries either, so the pre-orchestration byte format (and every
// golden pin) is unchanged.
struct SweepView {
  const std::vector<usize>& indices;
  ShardSpec shard;

  usize global(usize k) const { return indices[k]; }
  bool sharded() const { return shard.count > 1; }
};

template <typename Point>
SweepView sweep_view(const SweepRun<Point>& run, usize jobs) {
  SEMPE_CHECK(run.points.size() == run.indices.size());
  SEMPE_CHECK(run.total_jobs == jobs);
  return SweepView{run.indices, run.shard};
}

// The SweepRun an unsharded sweep producing `points` would return.
template <typename Point>
SweepRun<Point> unsharded_run(const std::vector<Point>& points) {
  SweepRun<Point> run;
  run.points = points;
  run.total_jobs = points.size();
  for (usize i = 0; i < points.size(); ++i) run.indices.push_back(i);
  return run;
}

// Header workload field: the distinct generator names, in job order —
// always over the FULL job list, so shard documents carry the same meta
// header as the unsharded run.
template <typename Job>
std::string distinct_generators(const std::vector<Job>& jobs) {
  std::vector<std::string> seen;
  std::string generators;
  for (const Job& j : jobs) {
    const std::string name = j.spec.substr(0, j.spec.find('?'));
    if (std::find(seen.begin(), seen.end(), name) != seen.end()) continue;
    seen.push_back(name);
    if (!generators.empty()) generators += ',';
    generators += name;
  }
  return generators;
}

// The metadata header. `threads` is deliberately the constant 0: results
// are thread-count invariant by construction, and recording the actual
// worker count would break the byte-identical-across---threads guarantee.
std::string json_header(const std::string& experiment,
                        const std::string& workload, const char* modes,
                        const SweepView& view) {
  std::string out = "{\n";
  out += "  \"meta\": {\n";
  append_f(out, "    \"schema_version\": %d,\n", kResultSchemaVersion);
  if (view.sharded())
    append_f(out, "    \"shard\": \"%zu/%zu\",\n", view.shard.index,
             view.shard.count);
  append_f(out, "    \"experiment\": \"%s\",\n",
           json_escape(experiment).c_str());
  append_f(out, "    \"workload\": \"%s\",\n", json_escape(workload).c_str());
  append_f(out, "    \"modes\": \"%s\",\n", modes);
  out += "    \"threads\": 0\n";
  out += "  },\n";
  out += "  \"points\": [\n";
  return out;
}

void begin_point(std::string& out, const SweepView& view, usize k) {
  out += "    {\n";
  if (view.sharded())
    append_f(out, "      \"_index\": %zu,\n", view.global(k));
}

void json_footer(std::string& out) { out += "  ]\n}\n"; }

}  // namespace

usize resolve_threads(usize requested, usize jobs) {
  usize n = requested;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw == 0 ? 1 : hw;
  }
  if (jobs > 0 && n > jobs) n = jobs;
  return n == 0 ? 1 : n;
}

namespace {

/// The orchestrated sweep shared by every job family: shard selection,
/// cache resolution of each selected job (single-threaded, so the
/// CacheStats accounting is deterministic), then parallel execution of
/// whatever could not be resolved, with write-back as each job retires —
/// which is also what lets a killed sweep resume from the cache.
template <typename Job, typename Point, typename MeasureFn, typename DecodeFn>
SweepRun<Point> run_sweep_impl(const std::vector<Job>& jobs,
                               const SweepOptions& opt, MeasureFn measure,
                               DecodeFn decode) {
  if (opt.shard.count == 0 || opt.shard.index >= opt.shard.count)
    throw SimError("bad shard " + std::to_string(opt.shard.index) + "/" +
                   std::to_string(opt.shard.count));
  // Touch the registry before fanning out: every family's jobs resolve
  // specs through it, and its lazy construction is the only shared
  // mutable state a job could race on.
  workloads::WorkloadRegistry::instance();
  SweepRun<Point> run;
  run.total_jobs = jobs.size();
  run.shard = opt.shard;
  for (usize i = opt.shard.index; i < jobs.size(); i += opt.shard.count)
    run.indices.push_back(i);
  const usize n = run.indices.size();

  if (opt.cache_dir.empty()) {
    run.points = run_indexed_labeled(
        n, opt.threads,
        [&](usize k) { return measure(jobs[run.indices[k]]); },
        [&](usize k) { return jobs[run.indices[k]].label; });
    return run;
  }

  const std::string fingerprint =
      opt.fingerprint.empty() ? code_fingerprint() : opt.fingerprint;
  const SweepCache cache(opt.cache_dir, fingerprint);

  // Planning pass: resolve each selected job from the cache. Every
  // unresolved job is counted exactly once as miss, stale, or corrupt.
  run.points.resize(n);
  std::vector<std::string> keys(n);
  std::vector<usize> pending;  // positions into run.indices / run.points
  for (usize k = 0; k < n; ++k) {
    keys[k] = job_cache_key(jobs[run.indices[k]], fingerprint);
    const SweepCache::Lookup hit = cache.lookup(keys[k]);
    if (hit.status == SweepCache::Status::kHit) {
      try {
        run.points[k] = decode(hit.blob);
        ++run.cache.hits;
        continue;
      } catch (const SimError&) {
        ++run.cache.corrupt;
      }
    } else if (hit.status == SweepCache::Status::kStale) {
      ++run.cache.stale;
    } else {
      ++run.cache.misses;
    }
    pending.push_back(k);
  }
  run.cache.stores = pending.size();

  auto executed = run_indexed_labeled(
      pending.size(), opt.threads,
      [&](usize j) {
        const usize k = pending[j];
        Point p = measure(jobs[run.indices[k]]);
        cache.store(keys[k], encode_point(p));
        return p;
      },
      [&](usize j) { return jobs[run.indices[pending[j]]].label; });
  for (usize j = 0; j < pending.size(); ++j)
    run.points[pending[j]] = std::move(executed[j]);

  std::fprintf(stderr,
               "sweep: %zu job(s): %" PRIu64 " cache hit(s), %" PRIu64
               " stale, %" PRIu64 " corrupt, %zu executed\n",
               n, run.cache.hits, run.cache.stale, run.cache.corrupt,
               pending.size());
  obs::Session* const os = obs::session();
  if (os != nullptr && os->metrics_enabled()) {
    auto& m = os->metrics().local();
    m.add("sweep.cache_hits", run.cache.hits);
    m.add("sweep.cache_misses", run.cache.misses);
    m.add("sweep.cache_stale", run.cache.stale);
    m.add("sweep.cache_corrupt", run.cache.corrupt);
    m.add("sweep.cache_stores", run.cache.stores);
  }
  return run;
}

}  // namespace

SweepRun<MicrobenchPoint> run_microbench_sweep(
    const std::vector<MicrobenchJob>& jobs, const SweepOptions& opt) {
  return run_sweep_impl<MicrobenchJob, MicrobenchPoint>(
      jobs, opt,
      [](const MicrobenchJob& j) { return measure_microbench(j.spec, j.opt); },
      decode_microbench_point);
}

SweepRun<WorkloadPoint> run_workload_sweep(const std::vector<WorkloadJob>& jobs,
                                           const SweepOptions& opt) {
  return run_sweep_impl<WorkloadJob, WorkloadPoint>(
      jobs, opt,
      [](const WorkloadJob& j) { return measure_workload(j.spec, j.opt); },
      decode_workload_point);
}

SweepRun<LeakagePoint> run_leakage_sweep(const std::vector<LeakageJob>& jobs,
                                         const SweepOptions& opt) {
  return run_sweep_impl<LeakageJob, LeakagePoint>(
      jobs, opt,
      [](const LeakageJob& j) { return measure_leakage(j.spec, j.opt); },
      decode_leakage_point);
}

std::string microbench_spec(workloads::Kind kind, usize width, usize iters) {
  return std::string("micro.") + workloads::kind_name(kind) +
         "?width=" + std::to_string(width) +
         "&iters=" + std::to_string(iters) + "&secrets=0";
}

std::vector<MicrobenchJob> microbench_grid(
    const std::vector<workloads::Kind>& kinds, const std::vector<usize>& widths,
    usize iters, const MicrobenchOptions& opt) {
  std::vector<MicrobenchJob> jobs;
  jobs.reserve(kinds.size() * widths.size());
  for (const workloads::Kind kind : kinds) {
    for (const usize w : widths) {
      MicrobenchJob j;
      j.label = std::string(workloads::kind_name(kind)) + "/W=" +
                std::to_string(w);
      j.spec = microbench_spec(kind, w, iters);
      j.opt = opt;
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

std::vector<WorkloadJob> djpeg_grid(
    const std::vector<workloads::OutputFormat>& formats,
    const std::vector<usize>& pixel_sizes, usize scale) {
  std::vector<WorkloadJob> jobs;
  jobs.reserve(formats.size() * pixel_sizes.size());
  for (const workloads::OutputFormat fmt : formats) {
    // The spec spells formats in lower case ("PPM" -> format=ppm).
    std::string key = workloads::format_name(fmt);
    for (char& c : key)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    for (const usize px : pixel_sizes) {
      WorkloadJob j;
      j.label = std::string(workloads::format_name(fmt)) + "/" +
                std::to_string(px / 1024) + "k";
      j.spec = "djpeg?format=" + key + "&pixels=" + std::to_string(px) +
               "&scale=" + std::to_string(scale);
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

namespace {

// One job per spec, labelled by the spec text.
template <typename Job, typename Opt>
std::vector<Job> spec_grid(const std::vector<std::string>& specs,
                           const Opt& opt) {
  std::vector<Job> jobs(specs.size());
  for (usize i = 0; i < specs.size(); ++i) {
    jobs[i].label = specs[i];
    jobs[i].spec = specs[i];
    jobs[i].opt = opt;
  }
  return jobs;
}

}  // namespace

std::vector<WorkloadJob> workload_grid(const std::vector<std::string>& specs,
                                       const MicrobenchOptions& opt) {
  return spec_grid<WorkloadJob>(specs, opt);
}

std::vector<LeakageJob> leakage_grid(const std::vector<std::string>& specs,
                                     const security::AuditOptions& opt) {
  return spec_grid<LeakageJob>(specs, opt);
}

const std::vector<workloads::Kind>& all_kinds() {
  static const std::vector<workloads::Kind> kinds = {
      workloads::Kind::kFibonacci, workloads::Kind::kOnes,
      workloads::Kind::kQuicksort, workloads::Kind::kQueens};
  return kinds;
}

const std::vector<usize>& djpeg_sizes() {
  static const std::vector<usize> sizes = {256 * 1024, 512 * 1024, 1024 * 1024,
                                           2048 * 1024};
  return sizes;
}

std::string microbench_json(const std::string& experiment,
                            const std::vector<MicrobenchJob>& jobs,
                            const SweepRun<MicrobenchPoint>& run) {
  const SweepView view = sweep_view(run, jobs.size());
  const std::vector<MicrobenchPoint>& points = run.points;
  std::string out =
      json_header(experiment, "microbench", "legacy,sempe,cte,ideal", view);
  for (usize i = 0; i < points.size(); ++i) {
    const MicrobenchPoint& p = points[i];
    begin_point(out, view, i);
    append_kv_s(out, "label", jobs[view.global(i)].label);
    append_kv_s(out, "kind", p.kind());
    append_kv_u64(out, "width", p.width());
    append_kv_u64(out, "baseline_cycles", p.baseline_cycles);
    append_kv_u64(out, "sempe_cycles", p.sempe_cycles);
    append_kv_u64(out, "cte_cycles", p.cte_cycles);
    append_kv_u64(out, "ideal_combined_cycles", p.ideal_combined_cycles);
    append_kv_u64(out, "ideal_standalone_cycles", p.ideal_standalone_cycles);
    append_kv_u64(out, "baseline_instructions", p.baseline_instructions);
    append_kv_u64(out, "sempe_instructions", p.sempe_instructions);
    append_kv_u64(out, "cte_instructions", p.cte_instructions);
    append_kv_f(out, "sempe_slowdown", p.sempe_slowdown());
    append_kv_f(out, "cte_slowdown", p.cte_slowdown());
    append_kv_f(out, "sempe_vs_ideal_combined", p.sempe_vs_ideal_combined());
    append_kv_f(out, "sempe_vs_ideal_standalone", p.sempe_vs_ideal_standalone(),
                /*last=*/true);
    out += i + 1 == points.size() ? "    }\n" : "    },\n";
  }
  json_footer(out);
  return out;
}

std::string djpeg_json(const std::string& experiment,
                       const std::vector<WorkloadJob>& jobs,
                       const SweepRun<WorkloadPoint>& run) {
  const SweepView view = sweep_view(run, jobs.size());
  const std::vector<WorkloadPoint>& points = run.points;
  std::string out = json_header(experiment, "djpeg", "legacy,sempe", view);
  for (usize i = 0; i < points.size(); ++i) {
    const WorkloadPoint& p = points[i];
    const workloads::DjpegConfig cell = workloads::djpeg_config_from_spec(
        workloads::WorkloadSpec::parse(p.spec));
    begin_point(out, view, i);
    append_kv_s(out, "label", jobs[view.global(i)].label);
    append_kv_s(out, "format", workloads::format_name(cell.format));
    append_kv_u64(out, "pixels", cell.pixels);
    append_kv_u64(out, "baseline_cycles", p.baseline_cycles);
    append_kv_u64(out, "sempe_cycles", p.sempe_cycles);
    append_kv_u64(out, "baseline_instructions", p.baseline_instructions);
    append_kv_u64(out, "sempe_instructions", p.sempe_instructions);
    append_kv_f(out, "overhead",
                p.baseline_cycles == 0 ? 0.0 : p.sempe_slowdown() - 1.0);
    append_kv_f(out, "il1_miss_baseline", p.baseline_miss.il1);
    append_kv_f(out, "il1_miss_sempe", p.sempe_miss.il1);
    append_kv_f(out, "dl1_miss_baseline", p.baseline_miss.dl1);
    append_kv_f(out, "dl1_miss_sempe", p.sempe_miss.dl1);
    append_kv_f(out, "l2_miss_baseline", p.baseline_miss.l2);
    append_kv_f(out, "l2_miss_sempe", p.sempe_miss.l2, /*last=*/true);
    out += i + 1 == points.size() ? "    }\n" : "    },\n";
  }
  json_footer(out);
  return out;
}

std::string workload_json(const std::string& experiment,
                          const std::vector<WorkloadJob>& jobs,
                          const SweepRun<WorkloadPoint>& run) {
  const SweepView view = sweep_view(run, jobs.size());
  const std::vector<WorkloadPoint>& points = run.points;
  std::string out = json_header(experiment, distinct_generators(jobs),
                                "legacy,sempe,cte", view);
  for (usize i = 0; i < points.size(); ++i) {
    const WorkloadPoint& p = points[i];
    begin_point(out, view, i);
    append_kv_s(out, "label", jobs[view.global(i)].label);
    append_kv_s(out, "spec", p.spec);
    append_kv_u64(out, "has_cte", p.has_cte ? 1 : 0);
    append_kv_u64(out, "results_ok", p.results_ok ? 1 : 0);
    // Per-mode verdicts (modes that did not run count as ok).
    const ModeResultCheck* lc = p.check("legacy");
    const ModeResultCheck* sc = p.check("sempe");
    const ModeResultCheck* cc = p.check("cte");
    append_kv_u64(out, "legacy_ok", (lc == nullptr || lc->ok) ? 1 : 0);
    append_kv_u64(out, "sempe_ok", (sc == nullptr || sc->ok) ? 1 : 0);
    append_kv_u64(out, "cte_ok", (cc == nullptr || cc->ok) ? 1 : 0);
    append_kv_s(out, "result_mismatch", p.mismatch_summary());
    append_kv_u64(out, "baseline_cycles", p.baseline_cycles);
    append_kv_u64(out, "sempe_cycles", p.sempe_cycles);
    append_kv_u64(out, "cte_cycles", p.cte_cycles);
    append_kv_u64(out, "baseline_instructions", p.baseline_instructions);
    append_kv_u64(out, "sempe_instructions", p.sempe_instructions);
    append_kv_u64(out, "cte_instructions", p.cte_instructions);
    append_kv_f(out, "sempe_slowdown", p.sempe_slowdown());
    append_kv_f(out, "cte_slowdown", p.cte_slowdown(), /*last=*/true);
    out += i + 1 == points.size() ? "    }\n" : "    },\n";
  }
  json_footer(out);
  return out;
}

std::string leakage_json(const std::string& experiment,
                         const std::vector<LeakageJob>& jobs,
                         const SweepRun<LeakagePoint>& run) {
  const SweepView view = sweep_view(run, jobs.size());
  const std::vector<LeakagePoint>& points = run.points;
  std::string out = json_header(experiment, distinct_generators(jobs),
                                "legacy,sempe,cte", view);
  for (usize i = 0; i < points.size(); ++i) {
    const LeakagePoint& p = points[i];
    const security::WorkloadAudit& a = p.audit;
    begin_point(out, view, i);
    append_kv_s(out, "label", jobs[view.global(i)].label);
    append_kv_s(out, "spec", a.spec);
    append_kv_u64(out, "secret_width", a.secret_width);
    append_kv_u64(out, "samples", a.masks.size());
    append_kv_u64(out, "results_ok", p.results_ok() ? 1 : 0);
    append_kv_u64(out, "has_cte", a.mode("cte") != nullptr ? 1 : 0);
    // Absent modes (e.g. cte for djpeg) serialize as closed/zero so every
    // point carries the same keys (byte-stable schema).
    for (const char* mode : {"legacy", "sempe", "cte"}) {
      const security::ModeAudit* m = a.mode(mode);
      std::string k = mode;
      append_kv_u64(out, (k + "_distinguishable").c_str(),
                    (m != nullptr && !m->indistinguishable()) ? 1 : 0);
      append_kv_f(out, (k + "_leaked_bits").c_str(),
                  m != nullptr ? m->leaked_bits() : 0.0);
      append_kv_s(out, (k + "_channels").c_str(),
                  m != nullptr ? m->open_channels() : "");
      append_kv_s(out, (k + "_stat_verdict").c_str(),
                  security::stat_verdict_name(
                      m != nullptr ? m->stat_verdict()
                                   : security::StatVerdict::kNotRun));
      append_kv_f(out, (k + "_stat_t").c_str(),
                  m != nullptr ? m->stat_max_t() : 0.0);
      append_kv_f(out, (k + "_stat_mi_bits").c_str(),
                  m != nullptr ? m->stat_max_mi_bits() : 0.0);
      append_kv_s(out, (k + "_stat_channels").c_str(),
                  m != nullptr ? m->stat_leak_channels() : "");
      append_kv_u64(out, (k + "_stat_samples").c_str(),
                    m != nullptr ? m->stat_samples() : 0);
    }
    append_kv_u64(out, "stat_pairs", a.stat_pairs);
    // Attack-audit points (workloads/attack.h) additionally carry the
    // end-to-end key-recovery metric per mode. Non-attack points keep the
    // pre-v3 key set, so their pinned golden bytes only move with the
    // schema line.
    bool attack_point = false;
    for (const security::ModeAudit& m : a.modes)
      attack_point = attack_point || m.attack;
    if (attack_point) {
      for (const char* mode : {"legacy", "sempe", "cte"}) {
        const security::ModeAudit* m = a.mode(mode);
        std::string k = mode;
        append_kv_u64(out, (k + "_key_bits_total").c_str(),
                      m != nullptr ? m->key_bits_total : 0);
        append_kv_u64(out, (k + "_key_bits_recovered").c_str(),
                      m != nullptr ? m->key_bits_recovered : 0);
        append_kv_f(out, (k + "_recovery_rate").c_str(),
                    m != nullptr ? m->recovery_rate() : 0.0);
      }
    }
    append_kv_s(out, "legacy_divergence",
                a.mode("legacy") != nullptr
                    ? a.mode("legacy")->first_divergence()
                    : "");
    append_kv_s(out, "sempe_divergence",
                a.mode("sempe") != nullptr
                    ? a.mode("sempe")->first_divergence()
                    : "",
                /*last=*/true);
    out += i + 1 == points.size() ? "    }\n" : "    },\n";
  }
  json_footer(out);
  return out;
}

std::string tenant_json(const std::string& experiment,
                        const std::vector<LeakageJob>& jobs,
                        const SweepRun<LeakagePoint>& run) {
  const SweepView view = sweep_view(run, jobs.size());
  const std::vector<LeakagePoint>& points = run.points;
  std::string out = json_header(experiment, distinct_generators(jobs),
                                "legacy,sempe,cte", view);
  for (usize i = 0; i < points.size(); ++i) {
    const LeakagePoint& p = points[i];
    const security::WorkloadAudit& a = p.audit;
    begin_point(out, view, i);
    append_kv_s(out, "label", jobs[view.global(i)].label);
    append_kv_s(out, "spec", a.spec);
    append_kv_u64(out, "tenants", workloads::kAttackTenants);
    append_kv_u64(out, "secret_width", a.secret_width);
    append_kv_u64(out, "samples", a.masks.size());
    append_kv_u64(out, "results_ok", p.results_ok() ? 1 : 0);
    for (const char* mode : {"legacy", "sempe", "cte"}) {
      const security::ModeAudit* m = a.mode(mode);
      std::string k = mode;
      append_kv_u64(out, (k + "_distinguishable").c_str(),
                    (m != nullptr && !m->indistinguishable()) ? 1 : 0);
      append_kv_s(out, (k + "_channels").c_str(),
                  m != nullptr ? m->open_channels() : "");
      append_kv_s(out, (k + "_stat_verdict").c_str(),
                  security::stat_verdict_name(
                      m != nullptr ? m->stat_verdict()
                                   : security::StatVerdict::kNotRun));
      append_kv_u64(out, (k + "_key_bits_total").c_str(),
                    m != nullptr ? m->key_bits_total : 0);
      append_kv_u64(out, (k + "_key_bits_recovered").c_str(),
                    m != nullptr ? m->key_bits_recovered : 0);
      append_kv_f(out, (k + "_recovery_rate").c_str(),
                  m != nullptr ? m->recovery_rate() : 0.0);
    }
    // The greppable acceptance-gate flags: the legacy baseline recovers
    // >= 90% of the key while the protected modes give the attacker no
    // evidence (exact tier clean, or stat tier no-evidence).
    append_kv_u64(out, "legacy_recovery_above_chance",
                  p.legacy_recovers() ? 1 : 0);
    append_kv_u64(out, "sempe_at_chance", p.at_chance("sempe") ? 1 : 0);
    append_kv_u64(out, "cte_at_chance", p.at_chance("cte") ? 1 : 0,
                  /*last=*/true);
    out += i + 1 == points.size() ? "    }\n" : "    },\n";
  }
  json_footer(out);
  return out;
}

namespace {

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    if (!out.empty()) out += "; ";
    out += l;
  }
  return out;
}

}  // namespace

std::string LintPoint::failure_summary() const { return join_lines(failures); }
std::string LintPoint::warning_summary() const { return join_lines(warnings); }

LintPoint lint_point(const LeakageJob& job, const LeakagePoint& point) {
  const security::WorkloadAudit& audit = point.audit;
  LintPoint pt;
  pt.lint = security::lint_workload(job.spec);

  // Pair each lint verdict with the audit of the matching binary/core
  // combination. `variant` names the pair in diagnostics.
  struct Pair {
    const char* variant;
    const security::LintResult* lint;
    const security::ModeAudit* audit;
  };
  std::vector<Pair> pairs = {
      {"natural/legacy", &pt.lint.natural_legacy, audit.mode("legacy")},
      {"natural/sempe", &pt.lint.natural_sempe, audit.mode("sempe")},
  };
  if (pt.lint.has_cte)
    pairs.push_back({"cte/legacy", &pt.lint.cte, audit.mode("cte")});

  for (const Pair& p : pairs) {
    const bool leaks = p.audit != nullptr && !p.audit->indistinguishable();
    if (p.lint->clean() && leaks) {
      // The analysis claimed constant-time but the simulator observed a
      // secret-dependent channel: an unsound lint, the one failure mode a
      // static tool must never have.
      pt.failures.push_back(std::string(p.variant) +
                            ": statically clean but dynamically "
                            "distinguishable (" +
                            p.audit->open_channels() + ")");
    } else if (!p.lint->clean() && p.audit != nullptr && !leaks) {
      // Conservative over-approximation (or a channel the sampled audit
      // missed): report, don't fail — see synthetic.ibr under kSempe.
      pt.warnings.push_back(std::string(p.variant) + ": " +
                            std::to_string(p.lint->findings.size()) +
                            " static finding(s) but dynamically "
                            "indistinguishable over " +
                            std::to_string(audit.masks.size()) + " samples");
    }
  }

  // The CTE discipline: provably clean, for all secret values at once.
  if (pt.lint.has_cte && !pt.lint.cte.clean())
    pt.failures.push_back("cte variant has " +
                          std::to_string(pt.lint.cte.findings.size()) +
                          " static finding(s); constant-time code must "
                          "lint clean");

  // Seed sanity: every harnessed workload branches on its secrets, so a
  // clean natural/legacy lint means the taint never reached the branch —
  // a lost-seed or lost-propagation bug, not a secure workload.
  if (pt.lint.secret_width > 0 && pt.lint.natural_legacy.clean())
    pt.failures.push_back(
        "secret_width > 0 but the natural variant lints clean under the "
        "legacy policy (lint lost the taint)");

  return pt;
}

std::string lint_json(const std::string& experiment,
                      const std::vector<LeakageJob>& jobs,
                      const SweepRun<LeakagePoint>& run) {
  const SweepView view = sweep_view(run, jobs.size());
  // Findings serialize compactly as "0x<pc>:<kind>" CSV — the PCs are the
  // pinned part; details stay in the human report.
  const auto findings_csv = [](const security::LintResult& r) {
    std::string csv;
    for (const security::TaintFinding& f : r.findings) {
      if (!csv.empty()) csv += ',';
      append_f(csv, "0x%" PRIx64 ":%s", f.pc, taint_kind_name(f.kind));
    }
    return csv;
  };
  std::string out = json_header(experiment, distinct_generators(jobs),
                                "legacy,sempe,cte", view);
  for (usize i = 0; i < run.points.size(); ++i) {
    const LeakageJob& job = jobs[view.global(i)];
    const security::WorkloadAudit& audit = run.points[i].audit;
    const LintPoint p = lint_point(job, run.points[i]);
    begin_point(out, view, i);
    append_kv_s(out, "label", job.label);
    append_kv_s(out, "spec", p.lint.spec);
    append_kv_u64(out, "secret_width", p.lint.secret_width);
    append_kv_u64(out, "has_cte", p.lint.has_cte ? 1 : 0);
    append_kv_u64(out, "ok", p.ok() ? 1 : 0);
    append_kv_s(out, "failures", p.failure_summary());
    append_kv_s(out, "warnings", p.warning_summary());
    append_kv_u64(out, "legacy_findings", p.lint.natural_legacy.findings.size());
    append_kv_u64(out, "sempe_findings", p.lint.natural_sempe.findings.size());
    append_kv_u64(out, "cte_findings", p.lint.cte.findings.size());
    append_kv_u64(out, "sempe_excused_sjmps", p.lint.natural_sempe.excused_sjmps);
    append_kv_u64(out, "legacy_passes", p.lint.natural_legacy.passes);
    append_kv_s(out, "legacy_finding_pcs", findings_csv(p.lint.natural_legacy));
    append_kv_s(out, "sempe_finding_pcs", findings_csv(p.lint.natural_sempe));
    append_kv_s(out, "cte_finding_pcs", findings_csv(p.lint.cte));
    // The dynamic half of the cross-check, for auditability of the verdict.
    for (const char* mode : {"legacy", "sempe", "cte"}) {
      const security::ModeAudit* m = audit.mode(mode);
      const std::string k = std::string(mode) + "_distinguishable";
      append_kv_u64(out, k.c_str(),
                    (m != nullptr && !m->indistinguishable()) ? 1 : 0);
    }
    append_kv_u64(out, "audit_samples", audit.masks.size(), /*last=*/true);
    out += i + 1 == run.points.size() ? "    }\n" : "    },\n";
  }
  json_footer(out);
  return out;
}

std::string workload_json(const std::string& experiment,
                          const std::vector<WorkloadJob>& jobs,
                          const std::vector<WorkloadPoint>& points) {
  SEMPE_CHECK(jobs.size() == points.size());
  return workload_json(experiment, jobs, unsharded_run(points));
}

std::string leakage_json(const std::string& experiment,
                         const std::vector<LeakageJob>& jobs,
                         const std::vector<LeakagePoint>& points) {
  SEMPE_CHECK(jobs.size() == points.size());
  return leakage_json(experiment, jobs, unsharded_run(points));
}

bool label_matches(const std::string& label, const std::string& pattern) {
  return std::regex_search(label, std::regex(pattern));
}

BatchCli parse_batch_cli(int& argc, char** argv) {
  BatchCli cli;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strncmp(a, "--threads=", 10)) {
      const std::optional<u64> n = parse_decimal(a + 10);
      if (!n) {
        cli.ok = false;
        cli.error = a;
      } else {
        cli.threads = static_cast<usize>(*n);
      }
    } else if (!std::strcmp(a, "--json")) {
      cli.want_json = true;
    } else if (!std::strncmp(a, "--json=", 7)) {
      cli.want_json = true;
      cli.json_path = a + 7;
    } else if (!std::strncmp(a, "--trace-out=", 12)) {
      cli.trace_path = a + 12;
      if (cli.trace_path.empty()) {
        cli.ok = false;
        cli.error = a;
      }
    } else if (!std::strncmp(a, "--metrics-out=", 14)) {
      cli.metrics_path = a + 14;
      if (cli.metrics_path.empty()) {
        cli.ok = false;
        cli.error = a;
      }
    } else if (!std::strcmp(a, "--progress")) {
      cli.progress = true;
    } else if (!std::strncmp(a, "--shard=", 8)) {
      const std::string_view spec(a + 8);
      const usize slash = spec.find('/');
      const std::optional<u64> idx = parse_decimal(spec.substr(0, slash));
      const std::optional<u64> count =
          slash == std::string_view::npos
              ? std::nullopt
              : parse_decimal(spec.substr(slash + 1));
      if (!idx || !count || *idx >= *count) {
        cli.ok = false;
        cli.error = a;
      } else {
        cli.shard_index = static_cast<usize>(*idx);
        cli.shard_count = static_cast<usize>(*count);
      }
    } else if (!std::strncmp(a, "--cache-dir=", 12)) {
      cli.cache_dir = a + 12;
      if (cli.cache_dir.empty()) {
        cli.ok = false;
        cli.error = a;
      }
    } else if (!std::strncmp(a, "--jobs=", 7)) {
      cli.jobs_regex = a + 7;
      if (cli.jobs_regex.empty()) {
        cli.ok = false;
        cli.error = a;
      } else {
        try {
          const std::regex probe(cli.jobs_regex);
        } catch (const std::regex_error&) {
          cli.ok = false;
          cli.error = a;
        }
      }
    } else if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
      cli.help = true;
    } else {
      argv[kept++] = argv[i];
      continue;
    }
  }
  // Anything not recognized stays in argv; the caller decides whether
  // leftovers are an error.
  for (int i = kept; i < argc; ++i) argv[i] = nullptr;
  argc = kept;
  return cli;
}

SweepOptions sweep_options(const BatchCli& cli) {
  SweepOptions opt;
  opt.threads = cli.threads;
  opt.shard.index = cli.shard_index;
  opt.shard.count = cli.shard_count;
  opt.cache_dir = cli.cache_dir;
  return opt;
}

namespace {

/// Write `text` to `path`, diagnosing failures on stderr.
bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return false;
  }
  const usize written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != text.size()) {
    std::fprintf(stderr, "short write to '%s'\n", path.c_str());
    return false;
  }
  if (!closed) {
    std::fprintf(stderr, "cannot flush '%s'\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

bool emit_json(const BatchCli& cli, const std::string& json) {
  if (cli.json_path.empty()) {
    const usize written = std::fwrite(json.data(), 1, json.size(), stdout);
    if (written != json.size() || std::fflush(stdout) != 0) {
      std::fprintf(stderr, "short write to stdout\n");
      return false;
    }
    return true;
  }
  return write_text_file(cli.json_path, json);
}

bool write_obs_outputs(obs::Session& session, const std::string& experiment,
                       const std::string& trace_path,
                       const std::string& metrics_path) {
  bool ok = true;
  if (!trace_path.empty() && session.trace() != nullptr) {
    ok = write_text_file(trace_path, session.trace()->to_json()) && ok;
    if (session.trace()->dropped() > 0)
      std::fprintf(stderr, "trace: %" PRIu64 " event(s) dropped (ring full)\n",
                   session.trace()->dropped());
  }
  if (!metrics_path.empty())
    ok = write_text_file(metrics_path,
                         obs::render_report(experiment, session)) &&
         ok;
  return ok;
}

}  // namespace sempe::sim
