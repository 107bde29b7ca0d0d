// Point (de)serialization for the sweep cache (sim/sweep_cache.h).
//
// Each of the three job families' result structs (workload, microbench,
// leakage) encodes to a line-oriented text blob and decodes back to an
// *exactly* equal value — u64s in decimal, doubles in hexfloat (%a,
// lossless round-trip), strings escaped — because the whole cache
// contract rests on it: a sweep served from the cache must serialize to
// --json output byte-identical to a fresh run. Decoding throws SimError
// on any malformed or missing field; the sweep driver treats that as a
// corrupt entry and re-executes the job.
//
// The blob opens with "sempe-point 1 <family>" so a key collision across
// families (or a framing change) fails loudly instead of mis-decoding.
#pragma once

#include <map>
#include <string>

#include "sim/experiment.h"

namespace sempe::sim {

/// Field-by-field writer for one encoded point.
class PointWriter {
 public:
  explicit PointWriter(const std::string& family);
  void put_u64(const std::string& key, u64 v);
  void put_bool(const std::string& key, bool v) { put_u64(key, v ? 1 : 0); }
  void put_f64(const std::string& key, double v);
  void put_str(const std::string& key, const std::string& v);
  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

/// Typed reader over one encoded point. Every getter throws SimError on a
/// missing key or a type mismatch.
class PointReader {
 public:
  /// Parses `blob`, checking the header names `family`.
  PointReader(const std::string& family, const std::string& blob);
  u64 get_u64(const std::string& key) const;
  bool get_bool(const std::string& key) const { return get_u64(key) != 0; }
  double get_f64(const std::string& key) const;
  std::string get_str(const std::string& key) const;

 private:
  const std::string& raw(const std::string& key, char type) const;

  std::map<std::string, std::pair<char, std::string>> fields_;
};

// Family names used in blob headers (and by the job keys of job_key.h).
inline constexpr const char* kMicrobenchFamily = "microbench";
inline constexpr const char* kWorkloadFamily = "workload";
inline constexpr const char* kLeakageFamily = "leakage";

std::string encode_point(const MicrobenchPoint& p);
std::string encode_point(const WorkloadPoint& p);
std::string encode_point(const LeakagePoint& p);

MicrobenchPoint decode_microbench_point(const std::string& blob);
WorkloadPoint decode_workload_point(const std::string& blob);
LeakagePoint decode_leakage_point(const std::string& blob);

}  // namespace sempe::sim
