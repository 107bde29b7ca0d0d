// Statistical leakage verdicts: the TVLA/dudect-style second tier of the
// leakage audit (security/audit.h).
//
// The exact tier proves indistinguishability by trace equality over a
// sampled secret space — an all-or-nothing verdict that cannot scale to
// wide secrets and gives no honest answer for channels that are close but
// not identical. This tier instead collects per-secret-CLASS sample
// distributions — a *fixed* class (the all-zero secret vector, TVLA's
// fixed input) against a *random* class (secret vectors drawn uniformly
// with replacement) — reduces each observation trace to one scalar
// feature per channel (cycle count for timing; the event-sequence hash
// bucketed for the stream/digest channels), and judges each (mode,
// channel) pair with two estimators:
//
//   - Welch's t-test between the class means. |t| above the decision
//     threshold (4.5 by TVLA convention) is evidence of a leak the
//     attacker could average out of the channel.
//   - A plug-in (maximum-likelihood) mutual-information estimate over the
//     joint class x feature histogram, thresholded at a multiple of the
//     estimator's first-order bias so small-sample overfitting cannot
//     masquerade as dependence. This catches symmetric leaks a mean test
//     is blind to (e.g. a channel whose random-class mean happens to
//     match the fixed class).
//
// The verdict is sample-size aware: `leak` needs either estimator over
// threshold; `no-evidence` additionally needs enough samples per class to
// mean something; anything else is `inconclusive` — an honest "spend more
// budget here", which is exactly what the adaptive driver in
// audit_workload does.
//
// Everything here is deterministic given the audit seed: the same job
// produces bit-identical t statistics on any thread count, which is what
// lets the statistics ride the sweep cache's byte-identity contract
// (sim/sweep_codec.h).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "security/observation.h"

namespace sempe::security {

// ---------------------------------------------------------------------------
// Running moments (Welford's algorithm — numerically stable one-pass).

struct RunningStats {
  usize n = 0;
  double mean = 0.0;
  double m2 = 0.0;  // sum of squared deviations from the running mean

  void add(double x);
  /// Unbiased sample variance (n-1 denominator); 0 when n < 2.
  double variance() const;
};

// ---------------------------------------------------------------------------
// Welch's unequal-variance t-test.

/// Stand-in for an infinite statistic when a class has zero variance but
/// the means differ (the deterministic-simulator degenerate case). Finite
/// so it survives the JSON emitters and the hexfloat codec unchanged.
inline constexpr double kTDegenerate = 1e9;

struct WelchResult {
  double t = 0.0;       // signed; |t| is judged against the threshold
  double dof = 0.0;     // Welch–Satterthwaite degrees of freedom
  double effect = 0.0;  // Cohen's d against the pooled spread
};

/// Welch's t between two sample sets. Zero-variance degeneracies resolve
/// deterministically: equal means give t = 0, differing means give
/// t = +/-kTDegenerate. Either class empty gives all-zero results.
WelchResult welch_t_test(const RunningStats& a, const RunningStats& b);

// ---------------------------------------------------------------------------
// Plug-in mutual information.

/// Maximum-likelihood ("plug-in") estimate of I(class; feature) in bits
/// over a joint histogram: joint[c][b] counts observations of class c in
/// feature bin b. Exact for the empirical distribution; biased upward by
/// ~ (classes-1)(bins-1)/(2 N ln 2) for small N (see mi_leak_threshold).
double plugin_mi_bits(const std::vector<std::vector<u64>>& joint);

/// The leak decision threshold for a plug-in MI estimate computed from
/// `n` total observations over `classes` x `bins` cells: three times the
/// estimator's first-order bias, floored at 0.05 bits. An estimate below
/// this is indistinguishable from sampling noise.
double mi_leak_threshold(usize classes, usize bins, usize n);

// ---------------------------------------------------------------------------
// Per-channel feature extraction.

/// Bucket count for the scalar form of the hash-valued channels. Wide
/// enough that distinct behaviors rarely collapse, small enough that the
/// t-test scalar stays low-cardinality.
inline constexpr usize kFeatureBuckets = 32;

/// The exact per-channel feature of one trace: the cycle count for
/// timing, the (hash, count) mix for the event-stream channels, the raw
/// digest for predictor/cache state. Equal features <=> channel_equal for
/// all practical purposes (modulo 64-bit hash collisions).
u64 channel_feature(const ObservationTrace& t, Channel c);

/// The scalar the t-test runs on: the feature itself for timing (cycle
/// counts are ordinal — means ARE meaningful), the feature folded into
/// [0, kFeatureBuckets) for the categorical hash channels.
double feature_scalar(Channel c, u64 feature);

// ---------------------------------------------------------------------------
// Verdicts.

enum class StatVerdict : u8 {
  kNotRun = 0,    // tier off, or the workload has no secret dimension
  kLeak,          // an estimator crossed its threshold
  kNoEvidence,    // below threshold with enough samples to mean it
  kInconclusive,  // below threshold but under-sampled — spend more budget
};

inline constexpr usize kNumStatVerdicts = 4;

/// Stable label: "not-run" | "leak" | "no-evidence" | "inconclusive".
const char* stat_verdict_name(StatVerdict v);

/// Minimum samples per class before "no difference seen" upgrades from
/// inconclusive to no-evidence (the dudect convention of not trusting
/// tiny-n null results).
inline constexpr usize kMinNoEvidenceSamples = 32;

/// The published result of one (mode, channel) statistical test — the
/// fields ChannelVerdict carries into reports, JSON, and the sweep codec.
struct ChannelStat {
  StatVerdict verdict = StatVerdict::kNotRun;
  double t = 0.0;        // signed Welch t (kTDegenerate-clamped)
  double dof = 0.0;      // Welch–Satterthwaite degrees of freedom
  double effect = 0.0;   // Cohen's d
  double mi_bits = 0.0;  // plug-in mutual information, bits
  usize n_fixed = 0;     // fixed-class samples judged
  usize n_random = 0;    // random-class samples judged

  bool operator==(const ChannelStat&) const = default;
};

/// One (mode, channel) fixed-vs-random test: accumulate per-class
/// samples, render the confidence-bounded verdict on demand. The adaptive
/// driver keeps feeding the test whose distributions look closest (see
/// decision_margin) until the sample budget runs out.
class ChannelStatTest {
 public:
  explicit ChannelStatTest(Channel channel) : channel_(channel) {}

  Channel channel() const { return channel_; }
  void add(bool fixed_class, const ObservationTrace& trace);

  usize n_fixed() const { return fixed_.n; }
  usize n_random() const { return random_.n; }

  WelchResult welch() const { return welch_t_test(fixed_, random_); }
  double mi_bits() const;
  /// Distinct feature values seen so far (the MI histogram bin count).
  usize feature_bins() const { return hist_.size(); }

  /// The full verdict at the |t| decision threshold `confidence`.
  ChannelStat result(double confidence) const;

  /// How far this test is from a leak decision, in |t| units: tests with
  /// SMALLER margins have closer distributions (larger p-values) and are
  /// where the adaptive driver spends its remaining budget.
  double decision_margin() const;

 private:
  Channel channel_;
  RunningStats fixed_, random_;
  // feature value -> {fixed-class count, random-class count}; ordered so
  // MI sums in a deterministic order (bit-identical doubles).
  std::map<u64, std::pair<u64, u64>> hist_;
};

}  // namespace sempe::security
