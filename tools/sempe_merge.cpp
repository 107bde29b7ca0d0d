// sempe_merge — reassemble a sharded sweep's --json documents.
//
//   sempe_bench scenarios --shard=0/2 --json=s0.json
//   sempe_bench scenarios --shard=1/2 --json=s1.json
//   sempe_merge s0.json s1.json > merged.json
//
// The merged document is byte-identical to what the unsharded run would
// have produced (sim/sweep_merge.h); the tool exits nonzero with a
// diagnostic when the inputs are not a complete consistent shard set.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/sweep_merge.h"
#include "util/check.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "%s — merge the --json documents of a sharded sweep\n"
               "usage: %s [--out=FILE] SHARD0.json SHARD1.json ...\n"
               "  --out=F  write the merged document to F (default: stdout)\n"
               "Pass every shard of the set (any order); the output is\n"
               "byte-identical to the unsharded run's --json document.\n",
               argv0, argv0);
}

bool read_file(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read '%s'\n", path);
    return false;
  }
  char buf[1 << 14];
  for (;;) {
    const size_t n = std::fread(buf, 1, sizeof buf, f);
    out->append(buf, n);
    if (n < sizeof buf) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "cannot read '%s'\n", path);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> shards;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
      usage(argv[0]);
      return 0;
    }
    if (!std::strncmp(a, "--out=", 6)) {
      out_path = a + 6;
      if (out_path.empty()) {
        std::fprintf(stderr, "bad argument: %s\n", a);
        return 1;
      }
      continue;
    }
    if (!std::strncmp(a, "--", 2)) {
      std::fprintf(stderr, "unknown argument: %s\n", a);
      usage(argv[0]);
      return 1;
    }
    std::string text;
    if (!read_file(a, &text)) return 1;
    shards.push_back(std::move(text));
  }
  if (shards.empty()) {
    usage(argv[0]);
    return 1;
  }

  std::string merged;
  try {
    merged = sempe::sim::merge_shard_json(shards);
  } catch (const sempe::SimError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
      return 1;
    }
  }
  const bool wrote =
      std::fwrite(merged.data(), 1, merged.size(), out) == merged.size();
  const bool flushed = std::fflush(out) == 0;
  if (out != stdout) std::fclose(out);
  if (!wrote || !flushed) {
    std::fprintf(stderr, "short write\n");
    return 1;
  }
  return 0;
}
