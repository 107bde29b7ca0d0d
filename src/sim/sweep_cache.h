// Sweep result cache: the persistence layer of the sweep orchestration
// subsystem (see sim/batch_runner.h).
//
// Entries are keyed by the content-address job key of sim/job_key.h — a
// hash of (canonical spec, machine config, mode matrix, result schema
// version, code fingerprint) — and hold one opaque encoded-point blob
// (sim/sweep_codec.h) per key, in one file per entry under
// D/<key[0:2]>/<key>.pt (--cache-dir=D). Each entry is written atomically
// (tmp + rename) as its job retires, so concurrent workers and concurrent
// sweeps never observe a torn entry, and a killed sweep rerun on the same
// directory executes only the jobs that had not finished. Every entry
// opens with a header line carrying the code fingerprint it was produced
// by; a mismatching header is reported as *stale* and treated as a miss,
// even if a foreign entry was copied under a matching key.
#pragma once

#include <string>

#include "util/types.h"

namespace sempe::sim {

/// Per-sweep accounting of how each job's result was obtained. Rendered
/// on stderr by the sweep driver and exported as sweep.* metrics when an
/// obs session with metrics is installed.
struct CacheStats {
  u64 hits = 0;             // served from a valid cache entry
  u64 misses = 0;           // no cache entry; the job was executed
  u64 stale = 0;            // entry existed but its fingerprint header
                            // (or framing) did not match — counted as a
                            // miss for execution purposes
  u64 corrupt = 0;          // entry blob failed to decode
  u64 stores = 0;           // freshly executed results written back
};

class SweepCache {
 public:
  /// Opens (creating on demand) the cache directory. `fingerprint` is the
  /// code fingerprint expected in entry headers — normally
  /// sempe::code_fingerprint(). Throws SimError when the directory cannot
  /// be created.
  SweepCache(std::string dir, std::string fingerprint);

  enum class Status {
    kHit,    // entry found, fingerprint matched; blob is valid
    kMiss,   // no entry under this key
    kStale,  // entry found but header/fingerprint mismatched
  };
  struct Lookup {
    Status status = Status::kMiss;
    std::string blob;  // the encoded point, only for kHit
  };

  Lookup lookup(const std::string& key) const;

  /// Write an entry atomically (tmp file + rename). I/O failures are
  /// diagnosed on stderr but non-fatal: a cache that cannot be written
  /// degrades to recompute-everything instead of killing the sweep.
  /// Returns false on failure. Thread-safe.
  bool store(const std::string& key, const std::string& blob) const;

  const std::string& dir() const { return dir_; }
  const std::string& fingerprint() const { return fingerprint_; }

 private:
  std::string entry_path(const std::string& key) const;

  std::string dir_;
  std::string fingerprint_;
};

}  // namespace sempe::sim
