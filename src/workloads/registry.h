// Pluggable workload registry: every workload source — the microbenchmark
// kernels, djpeg, the synthetic kernel family, and anything a future PR
// adds — implements one WorkloadGenerator interface and registers itself
// by name, so callers resolve textual specs like
//
//   micro.quicksort?width=3&iters=10
//   synthetic.ptr_chase?size=4096&stride=64
//   djpeg?format=gif&pixels=524288
//
// into ready-to-run programs plus the metadata the evaluation pipeline
// needs (results address, host-computed expected results). The spec
// grammar is `name` or `name?key=val&key=val...`; generators reject
// unknown keys so typos fail loudly.
//
// This mirrors codes-workload's uniform generator-method API: many
// workload sources, one interface, one lookup path (SNIPPETS.md entry 3).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "isa/program.h"
#include "security/observation.h"
#include "security/taint_lint.h"
#include "workloads/djpeg.h"
#include "workloads/harness.h"

namespace sempe::workloads {

/// A parsed `name?key=val&...` workload spec. Parameter order is
/// preserved, so a canonical spec round-trips through parse/to_string.
struct WorkloadSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;

  /// Throws SimError on grammar violations (empty name, missing '=',
  /// empty key, duplicate key).
  static WorkloadSpec parse(const std::string& text);
  std::string to_string() const;

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  u64 get_u64(const std::string& key, u64 fallback) const;
  /// Append key=value if the key is absent (canonicalization helper).
  void set_default(const std::string& key, const std::string& value);
  void set_default_u64(const std::string& key, u64 value);
  /// Overwrite the key's value (append if absent), preserving position —
  /// so a canonical spec echoes the value actually used.
  void set(const std::string& key, const std::string& value);
  /// Throws SimError if any parameter key is not in `allowed`.
  void check_keys(std::initializer_list<const char*> allowed) const;
};

/// A resolved, runnable workload: the program plus the metadata the
/// experiment drivers need to time it and check its results.
struct BuiltWorkload {
  isa::Program program;
  std::string spec;  // canonical spec (name + every resolved parameter)
  Addr results_addr = 0;
  usize num_results = 0;
  std::vector<u64> expected_results;  // host-computed mirror
};

/// What a co-residence attack workload (workloads/attack.h) produced for
/// one (secret vector, victim mode) point: the attacker tenant's
/// observation trace (its own channels plus the probe-verdict stream), the
/// secret mask it reduced those observations to, and the victim's own
/// result check. The leakage audit feeds `attacker_view` through both
/// verdict tiers and scores `guessed_mask` against the true secrets to get
/// the end-to-end key-bit recovery rate per mode.
struct AttackOutcome {
  std::string spec;  // canonical spec (name + every resolved parameter)
  security::ObservationTrace attacker_view;
  u64 guessed_mask = 0;
  bool results_ok = false;   // victim's merged results matched expectations
  std::string mismatch;      // first victim result mismatch, "" when ok
};

/// One accepted parameter of a generator, for `--list-workloads` and the
/// README catalog: the key, its default as it would appear in a canonical
/// spec ("0" when the default is derived from other keys), and a short
/// meaning.
struct ParamInfo {
  std::string key;
  std::string fallback;
  std::string help;
};

/// One workload source. Implementations must be stateless: build() may be
/// called concurrently from the batch runner's worker threads.
class WorkloadGenerator {
 public:
  virtual ~WorkloadGenerator() = default;
  virtual std::string name() const = 0;
  /// One-line description incl. accepted parameter keys (for --list).
  virtual std::string summary() const = 0;
  /// Every accepted parameter with its default. Built-in generators all
  /// implement this; the default is for minimal third-party generators.
  virtual std::vector<ParamInfo> params() const { return {}; }
  /// Whether build(…, Variant::kCte) is meaningful for this source.
  virtual bool has_cte_variant() const { return true; }
  /// Number of independent secret bits `spec` exposes — the dimension the
  /// leakage audit (security/audit.h) sweeps by rewriting the spec's
  /// `secrets` key with 0b mask literals. 0 means the workload has no
  /// settable secret vector (e.g. djpeg, whose secret is the image seed).
  virtual usize secret_width(const WorkloadSpec& spec) const {
    (void)spec;
    return 0;
  }
  virtual BuiltWorkload build(const WorkloadSpec& spec,
                              Variant variant) const = 0;
  /// True for co-residence attack workloads (workloads/attack.h): build()
  /// returns the victim binary alone, and the leakage audit drives the
  /// two-tenant simulation through run_attack() instead of sim::run().
  virtual bool is_attack() const { return false; }
  /// Run the full co-residence experiment for one secret vector: victim
  /// (built as `variant`, executed in `victim_mode`) and attacker
  /// interleaved over a shared hierarchy. The default implementation
  /// throws SimError — only attack generators override it.
  virtual AttackOutcome run_attack(const WorkloadSpec& spec, Variant variant,
                                   cpu::ExecMode victim_mode) const;
  /// Where the secret bits of a build of `spec` live in memory — the seed
  /// of the static taint lint (security/taint_lint.h). The default follows
  /// the harness convention: the whole allocation loaded through rSecrets
  /// (workloads/workload_regs.h), or no seeds when secret_width(spec) is 0
  /// (the workload exposes no settable secret vector, e.g. djpeg).
  virtual security::TaintSeeds taint_seeds(const WorkloadSpec& spec,
                                           const isa::Program& program) const;
};

class WorkloadRegistry {
 public:
  /// The process-wide registry, with all built-in generators registered.
  static WorkloadRegistry& instance();

  /// Throws SimError on a duplicate name.
  void add(std::unique_ptr<WorkloadGenerator> gen);
  /// nullptr when no generator has that name.
  const WorkloadGenerator* find(const std::string& name) const;
  /// Throws SimError listing the registered names on a miss.
  const WorkloadGenerator& resolve(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// The human-readable catalog `sempe_run --list-workloads` prints: every
  /// generator with its summary, parameter names and defaults, the secret
  /// width of its default spec, and whether a CTE variant exists.
  std::string catalog() const;

  /// Parse `spec_text`, resolve the generator, build the variant.
  BuiltWorkload build(const std::string& spec_text, Variant variant) const;

 private:
  WorkloadRegistry();
  std::vector<std::unique_ptr<WorkloadGenerator>> gens_;
};

/// Shared by the built-in harnessed generators (micro.*, synthetic.*):
/// parse the common harness keys width/iters/secrets, with `secrets` a
/// 0/1 string ("101") or the shorthands "0"/"1" (all-false/all-true,
/// the default).
HarnessConfig harness_config_from_spec(const WorkloadSpec& spec,
                                       Variant variant);

/// The djpeg generator's keys format/pixels/scale/seed as a DjpegConfig
/// (absent keys take DjpegConfig's defaults). Throws SimError on an
/// unknown format or an out-of-range size. Also how the Figs. 8/9 report
/// views read a point's format and size back from its canonical spec.
DjpegConfig djpeg_config_from_spec(const WorkloadSpec& spec);

}  // namespace sempe::workloads
