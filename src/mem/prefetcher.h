// Hardware prefetchers matching Table II: a PC-indexed stride prefetcher
// for the L1 data cache and a miss-stream prefetcher for the L2.
//
// Each prefetcher returns its prefetch addresses as a view of a buffer it
// owns and reuses, so no call allocates. The view stays valid until the
// next observe()/observe_miss() on the same prefetcher, or its destruction;
// copy the addresses out to keep them longer.
#pragma once

#include <span>
#include <vector>

#include "util/types.h"

namespace sempe::mem {

/// PC-indexed stride prefetcher (L1D). Learns (last address, stride) per
/// load PC; after two consecutive accesses with the same stride it emits a
/// prefetch for the next line.
class StridePrefetcher {
 public:
  struct Config {
    usize table_entries = 256;
    usize degree = 1;  // prefetches issued per trigger
  };

  StridePrefetcher() : StridePrefetcher(Config{}) {}
  explicit StridePrefetcher(const Config& cfg);

  /// Observe a demand access; returns the prefetch addresses (at most
  /// `degree`), valid until the next call (see the file comment).
  std::span<const Addr> observe(Addr pc, Addr addr);

  void reset();
  u64 issued() const { return issued_; }

 private:
  struct Entry {
    bool valid = false;
    u64 pc_tag = 0;
    Addr last_addr = 0;
    i64 stride = 0;
    u8 confidence = 0;
  };

  Config cfg_;
  std::vector<Entry> table_;
  std::vector<Addr> out_;  // the returned view's storage
  u64 issued_ = 0;
};

/// Sequential stream prefetcher (L2). Detects two consecutive-line misses in
/// ascending order and then runs a stream, prefetching `depth` lines ahead.
class StreamPrefetcher {
 public:
  struct Config {
    usize num_streams = 16;
    usize depth = 4;
    usize line_bytes = 64;
  };

  StreamPrefetcher() : StreamPrefetcher(Config{}) {}
  explicit StreamPrefetcher(const Config& cfg);

  /// Observe an L2 demand miss; returns the prefetch addresses (none or
  /// `depth`), valid until the next call (see the file comment).
  std::span<const Addr> observe_miss(Addr addr);

  void reset();
  u64 issued() const { return issued_; }

 private:
  struct Stream {
    bool valid = false;
    bool confirmed = false;
    Addr next_line = 0;   // next expected miss line
    u64 last_use = 0;
  };

  Config cfg_;
  std::vector<Stream> streams_;
  std::vector<Addr> out_;  // the returned view's storage
  u64 use_clock_ = 0;
  u64 issued_ = 0;
};

}  // namespace sempe::mem
