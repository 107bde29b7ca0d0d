#include "sim/sweep_cache.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "util/check.h"

namespace sempe::sim {

namespace {

// Entry header: "sempe-cache 1 <fingerprint>\n" ahead of the blob. The
// version is the on-disk framing version, not the result schema version —
// that one lives inside the job key.
constexpr const char* kCacheMagic = "sempe-cache 1 ";

std::string read_file(const std::string& path, bool* ok) {
  *ok = false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[1 << 14];
  for (;;) {
    const usize n = std::fread(buf, 1, sizeof buf, f);
    out.append(buf, n);
    if (n < sizeof buf) break;
  }
  *ok = std::ferror(f) == 0;
  std::fclose(f);
  return out;
}

}  // namespace

SweepCache::SweepCache(std::string dir, std::string fingerprint)
    : dir_(std::move(dir)), fingerprint_(std::move(fingerprint)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_))
    throw SimError("cannot create cache directory '" + dir_ +
                   "': " + ec.message());
}

std::string SweepCache::entry_path(const std::string& key) const {
  SEMPE_CHECK(key.size() >= 2);
  return dir_ + "/" + key.substr(0, 2) + "/" + key + ".pt";
}

SweepCache::Lookup SweepCache::lookup(const std::string& key) const {
  Lookup r;
  bool ok = false;
  const std::string text = read_file(entry_path(key), &ok);
  if (!ok) return r;  // kMiss: absent (or unreadable, same thing here)
  const std::string header = kCacheMagic + fingerprint_ + "\n";
  if (text.size() < header.size() ||
      std::memcmp(text.data(), header.data(), header.size()) != 0) {
    r.status = Status::kStale;
    return r;
  }
  r.status = Status::kHit;
  r.blob = text.substr(header.size());
  return r;
}

bool SweepCache::store(const std::string& key, const std::string& blob) const {
  const std::string path = entry_path(key);
  std::error_code ec;
  std::filesystem::create_directories(dir_ + "/" + key.substr(0, 2), ec);
  if (ec) {
    std::fprintf(stderr, "cache: cannot create shard dir for '%s'\n",
                 key.c_str());
    return false;
  }
  // Unique tmp name per writer thread; rename() is atomic within the
  // directory, so readers only ever see absent or complete entries.
  const usize tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::string tmp = path + ".tmp." + std::to_string(tid);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cache: cannot write '%s'\n", tmp.c_str());
    return false;
  }
  const std::string header = kCacheMagic + fingerprint_ + "\n";
  const bool wrote =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::fprintf(stderr, "cache: short write to '%s'\n", tmp.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::fprintf(stderr, "cache: cannot publish '%s': %s\n", path.c_str(),
                 ec.message().c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace sempe::sim
