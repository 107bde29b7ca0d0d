#include "sim/sweep_codec.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "util/check.h"
#include "util/decimal.h"

namespace sempe::sim {

namespace {

constexpr const char* kBlobMagic = "sempe-point 1 ";

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (usize i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default:
        throw SimError(std::string("point blob: bad escape '\\") + s[i] + "'");
    }
  }
  return out;
}

std::string idx(const std::string& prefix, usize i, const char* field) {
  return prefix + std::to_string(i) + "." + field;
}

}  // namespace

// ---------------------------------------------------------------------------
// PointWriter / PointReader

PointWriter::PointWriter(const std::string& family) {
  out_ = kBlobMagic + family + "\n";
}

void PointWriter::put_u64(const std::string& key, u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out_ += "u " + key + " " + buf + "\n";
}

void PointWriter::put_f64(const std::string& key, double v) {
  // Hexfloat: lossless decimal-free round-trip through strtod.
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  out_ += "d " + key + " " + buf + "\n";
}

void PointWriter::put_str(const std::string& key, const std::string& v) {
  out_ += "s " + key + " " + escape(v) + "\n";
}

PointReader::PointReader(const std::string& family, const std::string& blob) {
  const std::string header = kBlobMagic + family + "\n";
  if (blob.compare(0, header.size(), header) != 0)
    throw SimError("point blob: bad header (want family '" + family + "')");
  usize pos = header.size();
  while (pos < blob.size()) {
    usize eol = blob.find('\n', pos);
    if (eol == std::string::npos) eol = blob.size();
    const std::string line = blob.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.size() < 4 || line[1] != ' ')
      throw SimError("point blob: malformed line '" + line + "'");
    const char type = line[0];
    if (type != 'u' && type != 'd' && type != 's')
      throw SimError("point blob: unknown field type in '" + line + "'");
    const usize sp = line.find(' ', 2);
    if (sp == std::string::npos)
      throw SimError("point blob: malformed line '" + line + "'");
    fields_[line.substr(2, sp - 2)] = {type, line.substr(sp + 1)};
  }
}

const std::string& PointReader::raw(const std::string& key, char type) const {
  const auto it = fields_.find(key);
  if (it == fields_.end())
    throw SimError("point blob: missing field '" + key + "'");
  if (it->second.first != type)
    throw SimError("point blob: field '" + key + "' has wrong type");
  return it->second.second;
}

u64 PointReader::get_u64(const std::string& key) const {
  const std::optional<u64> n = parse_decimal(raw(key, 'u'));
  if (!n) throw SimError("point blob: bad u64 in field '" + key + "'");
  return *n;
}

double PointReader::get_f64(const std::string& key) const {
  const std::string& v = raw(key, 'd');
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0')
    throw SimError("point blob: bad double in field '" + key + "'");
  return d;
}

std::string PointReader::get_str(const std::string& key) const {
  return unescape(raw(key, 's'));
}

// ---------------------------------------------------------------------------
// Shared sub-struct codecs

namespace {

u64 checked_enum(const PointReader& r, const std::string& key, u64 max_value) {
  const u64 v = r.get_u64(key);
  if (v > max_value)
    throw SimError("point blob: enum field '" + key + "' out of range");
  return v;
}

void put_audit(PointWriter& w, const std::string& p,
               const security::WorkloadAudit& a) {
  w.put_str(p + "spec", a.spec);
  w.put_u64(p + "secret_width", a.secret_width);
  w.put_u64(p + "masks.n", a.masks.size());
  for (usize i = 0; i < a.masks.size(); ++i)
    w.put_u64(p + "masks." + std::to_string(i), a.masks[i]);
  w.put_u64(p + "modes.n", a.modes.size());
  for (usize i = 0; i < a.modes.size(); ++i) {
    const security::ModeAudit& m = a.modes[i];
    const std::string mp = p + "modes." + std::to_string(i) + ".";
    w.put_str(mp + "mode", m.mode);
    w.put_u64(mp + "samples", m.samples);
    w.put_bool(mp + "results_ok", m.results_ok);
    w.put_str(mp + "mismatch", m.mismatch);
    w.put_bool(mp + "attack", m.attack);
    w.put_u64(mp + "key_bits_total", m.key_bits_total);
    w.put_u64(mp + "key_bits_recovered", m.key_bits_recovered);
    w.put_u64(mp + "channels.n", m.channels.size());
    for (usize j = 0; j < m.channels.size(); ++j) {
      const security::ChannelVerdict& c = m.channels[j];
      const std::string cp = mp + "channels." + std::to_string(j) + ".";
      w.put_u64(cp + "channel", static_cast<u64>(c.channel));
      w.put_u64(cp + "num_classes", c.num_classes);
      w.put_f64(cp + "leaked_bits", c.leaked_bits);
      w.put_str(cp + "first_divergence", c.first_divergence);
      w.put_u64(cp + "stat_verdict", static_cast<u64>(c.stat.verdict));
      w.put_f64(cp + "stat_t", c.stat.t);
      w.put_f64(cp + "stat_dof", c.stat.dof);
      w.put_f64(cp + "stat_effect", c.stat.effect);
      w.put_f64(cp + "stat_mi_bits", c.stat.mi_bits);
      w.put_u64(cp + "stat_n_fixed", c.stat.n_fixed);
      w.put_u64(cp + "stat_n_random", c.stat.n_random);
    }
  }
  w.put_u64(p + "stat_pairs", a.stat_pairs);
}

security::WorkloadAudit get_audit(const PointReader& r, const std::string& p) {
  security::WorkloadAudit a;
  a.spec = r.get_str(p + "spec");
  a.secret_width = r.get_u64(p + "secret_width");
  const usize nm = r.get_u64(p + "masks.n");
  for (usize i = 0; i < nm; ++i)
    a.masks.push_back(r.get_u64(p + "masks." + std::to_string(i)));
  const usize n = r.get_u64(p + "modes.n");
  for (usize i = 0; i < n; ++i) {
    security::ModeAudit m;
    const std::string mp = p + "modes." + std::to_string(i) + ".";
    m.mode = r.get_str(mp + "mode");
    m.samples = r.get_u64(mp + "samples");
    m.results_ok = r.get_bool(mp + "results_ok");
    m.mismatch = r.get_str(mp + "mismatch");
    m.attack = r.get_bool(mp + "attack");
    m.key_bits_total = r.get_u64(mp + "key_bits_total");
    m.key_bits_recovered = r.get_u64(mp + "key_bits_recovered");
    const usize nc = r.get_u64(mp + "channels.n");
    for (usize j = 0; j < nc; ++j) {
      security::ChannelVerdict c;
      const std::string cp = mp + "channels." + std::to_string(j) + ".";
      c.channel = static_cast<security::Channel>(
          checked_enum(r, cp + "channel", security::kNumChannels - 1));
      c.num_classes = r.get_u64(cp + "num_classes");
      c.leaked_bits = r.get_f64(cp + "leaked_bits");
      c.first_divergence = r.get_str(cp + "first_divergence");
      c.stat.verdict = static_cast<security::StatVerdict>(checked_enum(
          r, cp + "stat_verdict", security::kNumStatVerdicts - 1));
      c.stat.t = r.get_f64(cp + "stat_t");
      c.stat.dof = r.get_f64(cp + "stat_dof");
      c.stat.effect = r.get_f64(cp + "stat_effect");
      c.stat.mi_bits = r.get_f64(cp + "stat_mi_bits");
      c.stat.n_fixed = r.get_u64(cp + "stat_n_fixed");
      c.stat.n_random = r.get_u64(cp + "stat_n_random");
      m.channels.push_back(std::move(c));
    }
    a.modes.push_back(std::move(m));
  }
  a.stat_pairs = r.get_u64(p + "stat_pairs");
  return a;
}

void put_lint_result(PointWriter& w, const std::string& p,
                     const security::LintResult& lr) {
  w.put_u64(p + "findings.n", lr.findings.size());
  for (usize i = 0; i < lr.findings.size(); ++i) {
    const security::TaintFinding& f = lr.findings[i];
    const std::string fp = p + "findings." + std::to_string(i) + ".";
    w.put_u64(fp + "kind", static_cast<u64>(f.kind));
    w.put_u64(fp + "pc", f.pc);
    w.put_str(fp + "detail", f.detail);
  }
  w.put_u64(p + "passes", lr.passes);
  w.put_u64(p + "tainted_branches", lr.tainted_branches);
  w.put_u64(p + "excused_sjmps", lr.excused_sjmps);
}

security::LintResult get_lint_result(const PointReader& r,
                                     const std::string& p) {
  security::LintResult lr;
  const usize n = r.get_u64(p + "findings.n");
  for (usize i = 0; i < n; ++i) {
    security::TaintFinding f;
    const std::string fp = p + "findings." + std::to_string(i) + ".";
    f.kind = static_cast<security::TaintKind>(checked_enum(
        r, fp + "kind",
        static_cast<u64>(security::TaintKind::kSecretIndirect)));
    f.pc = r.get_u64(fp + "pc");
    f.detail = r.get_str(fp + "detail");
    lr.findings.push_back(std::move(f));
  }
  lr.passes = r.get_u64(p + "passes");
  lr.tainted_branches = r.get_u64(p + "tainted_branches");
  lr.excused_sjmps = r.get_u64(p + "excused_sjmps");
  return lr;
}

void put_string_list(PointWriter& w, const std::string& p,
                     const std::vector<std::string>& v) {
  w.put_u64(p + "n", v.size());
  for (usize i = 0; i < v.size(); ++i)
    w.put_str(p + std::to_string(i), v[i]);
}

std::vector<std::string> get_string_list(const PointReader& r,
                                         const std::string& p) {
  std::vector<std::string> v;
  const usize n = r.get_u64(p + "n");
  for (usize i = 0; i < n; ++i) v.push_back(r.get_str(p + std::to_string(i)));
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Per-family codecs

namespace {

void put_miss_rates(PointWriter& w, const std::string& p, const MissRates& m) {
  w.put_f64(p + "il1", m.il1);
  w.put_f64(p + "dl1", m.dl1);
  w.put_f64(p + "l2", m.l2);
}

MissRates get_miss_rates(const PointReader& r, const std::string& p) {
  return {r.get_f64(p + "il1"), r.get_f64(p + "dl1"), r.get_f64(p + "l2")};
}

void put_workload(PointWriter& w, const WorkloadPoint& p) {
  w.put_str("spec", p.spec);
  w.put_bool("has_cte", p.has_cte);
  w.put_bool("results_ok", p.results_ok);
  w.put_u64("checks.n", p.checks.size());
  for (usize i = 0; i < p.checks.size(); ++i) {
    w.put_str(idx("checks.", i, "mode"), p.checks[i].mode);
    w.put_bool(idx("checks.", i, "ok"), p.checks[i].ok);
    w.put_str(idx("checks.", i, "detail"), p.checks[i].detail);
  }
  w.put_u64("baseline_cycles", p.baseline_cycles);
  w.put_u64("sempe_cycles", p.sempe_cycles);
  w.put_u64("cte_cycles", p.cte_cycles);
  w.put_u64("baseline_instructions", p.baseline_instructions);
  w.put_u64("sempe_instructions", p.sempe_instructions);
  w.put_u64("cte_instructions", p.cte_instructions);
  put_miss_rates(w, "baseline_miss.", p.baseline_miss);
  put_miss_rates(w, "sempe_miss.", p.sempe_miss);
}

void get_workload(const PointReader& r, WorkloadPoint& p) {
  p.spec = r.get_str("spec");
  p.has_cte = r.get_bool("has_cte");
  p.results_ok = r.get_bool("results_ok");
  const usize n = r.get_u64("checks.n");
  for (usize i = 0; i < n; ++i) {
    ModeResultCheck c;
    c.mode = r.get_str(idx("checks.", i, "mode"));
    c.ok = r.get_bool(idx("checks.", i, "ok"));
    c.detail = r.get_str(idx("checks.", i, "detail"));
    p.checks.push_back(std::move(c));
  }
  p.baseline_cycles = r.get_u64("baseline_cycles");
  p.sempe_cycles = r.get_u64("sempe_cycles");
  p.cte_cycles = r.get_u64("cte_cycles");
  p.baseline_instructions = r.get_u64("baseline_instructions");
  p.sempe_instructions = r.get_u64("sempe_instructions");
  p.cte_instructions = r.get_u64("cte_instructions");
  p.baseline_miss = get_miss_rates(r, "baseline_miss.");
  p.sempe_miss = get_miss_rates(r, "sempe_miss.");
}

}  // namespace

std::string encode_point(const WorkloadPoint& p) {
  PointWriter w(kWorkloadFamily);
  put_workload(w, p);
  return w.str();
}

WorkloadPoint decode_workload_point(const std::string& blob) {
  WorkloadPoint p;
  get_workload(PointReader(kWorkloadFamily, blob), p);
  return p;
}

// A microbench point is a workload point plus its two ideals, under its
// own family header so neither decoder accepts the other's blobs.
std::string encode_point(const MicrobenchPoint& p) {
  PointWriter w(kMicrobenchFamily);
  put_workload(w, p);
  w.put_u64("ideal_combined_cycles", p.ideal_combined_cycles);
  w.put_u64("ideal_standalone_cycles", p.ideal_standalone_cycles);
  return w.str();
}

MicrobenchPoint decode_microbench_point(const std::string& blob) {
  const PointReader r(kMicrobenchFamily, blob);
  MicrobenchPoint p;
  get_workload(r, p);
  p.ideal_combined_cycles = r.get_u64("ideal_combined_cycles");
  p.ideal_standalone_cycles = r.get_u64("ideal_standalone_cycles");
  return p;
}

std::string encode_point(const LeakagePoint& p) {
  PointWriter w(kLeakageFamily);
  put_audit(w, "audit.", p.audit);
  return w.str();
}

LeakagePoint decode_leakage_point(const std::string& blob) {
  const PointReader r(kLeakageFamily, blob);
  LeakagePoint p;
  p.audit = get_audit(r, "audit.");
  return p;
}

std::string encode_point(const LintPoint& p) {
  PointWriter w(kLintFamily);
  w.put_str("lint.spec", p.lint.spec);
  w.put_u64("lint.secret_width", p.lint.secret_width);
  w.put_bool("lint.has_cte", p.lint.has_cte);
  put_lint_result(w, "lint.natural_legacy.", p.lint.natural_legacy);
  put_lint_result(w, "lint.natural_sempe.", p.lint.natural_sempe);
  put_lint_result(w, "lint.cte.", p.lint.cte);
  put_audit(w, "audit.", p.audit);
  put_string_list(w, "failures.", p.failures);
  put_string_list(w, "warnings.", p.warnings);
  return w.str();
}

LintPoint decode_lint_point(const std::string& blob) {
  const PointReader r(kLintFamily, blob);
  LintPoint p;
  p.lint.spec = r.get_str("lint.spec");
  p.lint.secret_width = r.get_u64("lint.secret_width");
  p.lint.has_cte = r.get_bool("lint.has_cte");
  p.lint.natural_legacy = get_lint_result(r, "lint.natural_legacy.");
  p.lint.natural_sempe = get_lint_result(r, "lint.natural_sempe.");
  p.lint.cte = get_lint_result(r, "lint.cte.");
  p.audit = get_audit(r, "audit.");
  p.failures = get_string_list(r, "failures.");
  p.warnings = get_string_list(r, "warnings.");
  return p;
}

}  // namespace sempe::sim
