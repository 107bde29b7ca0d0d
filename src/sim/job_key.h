// Content-address job identity for the sweep orchestration subsystem.
//
// Every sweep job — any of the three families of sim/batch_runner.h —
// reduces to a JobIdentity: the canonical workload spec, the
// result-affecting machine configuration, the mode matrix the family
// executes, the result schema version, and the build's code fingerprint
// (util/fingerprint.h). Its FNV hash is the content-address key under
// which the result is cached (sim/sweep_cache.h).
//
// What the key deliberately EXCLUDES is as load-bearing as what it
// includes:
//   - job labels (cosmetic; the JSON emitters take labels from the job
//     list, never from cached points), so reports that label the same
//     spec differently — table2's self-check and fig10a's ones/W=2 —
//     share one entry;
//   - options the measurement never reads (AuditOptions::progress
//     steers stderr only);
//   - thread count, shard assignment, the cache path — the
//     byte-identity contract says those cannot change results.
//
// Spec canonicalization: `name?b=2&a=1` and `name?a=1&b=2` resolve to the
// same workload, so params are sorted by key before hashing — permuted-
// equivalent specs share one cache entry.
#pragma once

#include <string>
#include <string_view>

#include "sim/batch_runner.h"

namespace sempe::sim {

/// 64-bit FNV-1a over `text`.
u64 fnv1a64(std::string_view text);
/// Render a key as 16 lowercase hex digits (the cache filename form).
std::string key_hex(u64 key);

/// Canonicalize a `name?key=val&...` spec for hashing: parse, sort params
/// by key, re-serialize. Specs that fail to parse (the measurement would
/// throw on them anyway) canonicalize to their raw text.
std::string canonical_spec_key(const std::string& spec_text);

/// The content-address identity of one sweep job.
struct JobIdentity {
  std::string family;       // sweep_codec.h family constant
  std::string spec;         // canonical spec text
  std::string machine;      // result-affecting config, "k=v k=v" text
  std::string modes;        // mode matrix, e.g. "legacy,sempe,cte"
  int schema_version = kResultSchemaVersion;
  std::string fingerprint;  // code fingerprint the result depends on

  /// The exact text the key hashes (stable across builds; also the
  /// debugging form: two jobs collide iff these strings are equal).
  std::string canonical_text() const;
  /// key_hex(fnv1a64(canonical_text())).
  std::string key() const;
};

// Per-family identities. `fingerprint` is normally
// sempe::code_fingerprint(); tests substitute synthetic values to prove
// stale-entry behavior.
JobIdentity job_identity(const MicrobenchJob& job,
                         const std::string& fingerprint);
JobIdentity job_identity(const WorkloadJob& job,
                         const std::string& fingerprint);
JobIdentity job_identity(const LeakageJob& job,
                         const std::string& fingerprint);

/// job_identity(job, fingerprint).key() for any job family.
template <typename Job>
std::string job_cache_key(const Job& job, const std::string& fingerprint) {
  return job_identity(job, fingerprint).key();
}

}  // namespace sempe::sim
