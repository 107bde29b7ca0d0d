#include "sim/sweep_merge.h"

#include <cstring>
#include <map>
#include <optional>
#include <set>

#include "util/check.h"
#include "util/decimal.h"
#include "util/types.h"

namespace sempe::sim {

namespace {

constexpr const char* kShardLinePrefix = "    \"shard\": \"";
constexpr const char* kIndexLinePrefix = "      \"_index\": ";
constexpr const char* kPointsOpen = "  \"points\": [\n";
constexpr const char* kBlockOpen = "    {\n";

struct ShardDoc {
  usize shard_index = 0;
  usize shard_count = 0;
  std::string header;  // up to and including the "points": [ line,
                       // with the shard meta line removed
  std::string footer;  // from the points-array close to EOF
  std::map<usize, std::string> blocks;  // global index -> point block
                                        // body (annotation removed, no
                                        // trailing comma)
};

// Shard documents are read from outside the program, so the whole token
// must be decimal digits (parse_decimal).
usize parse_usize(const std::string& text, const char* what) {
  const std::optional<u64> v = parse_decimal(text);
  if (!v)
    throw SimError(std::string("shard merge: bad ") + what + " '" + text + "'");
  return static_cast<usize>(*v);
}

ShardDoc parse_shard(const std::string& doc) {
  ShardDoc out;
  const usize points_open = doc.find(kPointsOpen);
  if (points_open == std::string::npos)
    throw SimError("shard merge: input has no points array");
  std::string header =
      doc.substr(0, points_open + std::strlen(kPointsOpen));

  // Pull the shard meta line out of the header.
  const usize shard_at = header.find(kShardLinePrefix);
  if (shard_at == std::string::npos)
    throw SimError(
        "shard merge: input has no \"shard\" meta line (was it produced "
        "with --shard?)");
  const usize shard_eol = header.find('\n', shard_at);
  SEMPE_CHECK(shard_eol != std::string::npos);
  const std::string shard_line =
      header.substr(shard_at, shard_eol - shard_at);
  const std::string value =
      shard_line.substr(std::strlen(kShardLinePrefix));  // i/N",
  const usize slash = value.find('/');
  const usize quote = value.find('"');
  if (slash == std::string::npos || quote == std::string::npos ||
      slash > quote)
    throw SimError("shard merge: malformed shard meta line '" + shard_line +
                   "'");
  out.shard_index = parse_usize(value.substr(0, slash), "shard index");
  out.shard_count =
      parse_usize(value.substr(slash + 1, quote - slash - 1), "shard count");
  header.erase(shard_at, shard_eol - shard_at + 1);
  out.header = std::move(header);

  // Walk the point blocks.
  usize pos = points_open + std::strlen(kPointsOpen);
  while (doc.compare(pos, std::strlen(kBlockOpen), kBlockOpen) == 0) {
    usize cursor = pos + std::strlen(kBlockOpen);
    // First line must be the _index annotation.
    if (doc.compare(cursor, std::strlen(kIndexLinePrefix),
                    kIndexLinePrefix) != 0)
      throw SimError(
          "shard merge: point without an \"_index\" annotation (was the "
          "document produced with --shard?)");
    const usize index_eol = doc.find('\n', cursor);
    SEMPE_CHECK(index_eol != std::string::npos);
    std::string index_text = doc.substr(
        cursor + std::strlen(kIndexLinePrefix),
        index_eol - cursor - std::strlen(kIndexLinePrefix));
    if (!index_text.empty() && index_text.back() == ',')
      index_text.pop_back();
    const usize global = parse_usize(index_text, "point index");
    cursor = index_eol + 1;
    // Scan to the block terminator "    }\n" or "    },\n".
    std::string body;
    for (;;) {
      const usize eol = doc.find('\n', cursor);
      if (eol == std::string::npos)
        throw SimError("shard merge: unterminated point block");
      const std::string line = doc.substr(cursor, eol - cursor);
      cursor = eol + 1;
      if (line == "    }" || line == "    },") break;
      body += line;
      body += '\n';
    }
    if (out.blocks.count(global) != 0)
      throw SimError("shard merge: duplicate point index " +
                     std::to_string(global));
    out.blocks[global] = std::move(body);
    pos = cursor;
  }
  out.footer = doc.substr(pos);
  if (out.footer.compare(0, 4, "  ]\n") != 0)
    throw SimError("shard merge: points array does not close where expected");
  return out;
}

}  // namespace

std::string merge_shard_json(const std::vector<std::string>& shards) {
  if (shards.empty()) throw SimError("shard merge: no input documents");
  std::vector<ShardDoc> docs;
  docs.reserve(shards.size());
  for (const std::string& s : shards) docs.push_back(parse_shard(s));

  const usize count = docs[0].shard_count;
  if (count != shards.size())
    throw SimError("shard merge: got " + std::to_string(shards.size()) +
                   " document(s) for a " + std::to_string(count) +
                   "-way shard set");
  std::set<usize> seen_shards;
  std::map<usize, const std::string*> points;
  for (const ShardDoc& d : docs) {
    if (d.shard_count != count)
      throw SimError("shard merge: mixed shard counts (" +
                     std::to_string(d.shard_count) + " vs " +
                     std::to_string(count) + ")");
    if (d.shard_index >= count || !seen_shards.insert(d.shard_index).second)
      throw SimError("shard merge: duplicate or out-of-range shard " +
                     std::to_string(d.shard_index) + "/" +
                     std::to_string(count));
    if (d.header != docs[0].header || d.footer != docs[0].footer)
      throw SimError(
          "shard merge: documents disagree outside the points array (were "
          "they produced by the same sweep?)");
    for (const auto& [global, body] : d.blocks) {
      if (global % count != d.shard_index)
        throw SimError("shard merge: point " + std::to_string(global) +
                       " cannot belong to shard " +
                       std::to_string(d.shard_index) + "/" +
                       std::to_string(count));
      points[global] = &body;
    }
  }
  // The union must be a gap-free 0..M-1 range (std::map iterates sorted).
  usize expect = 0;
  for (const auto& [global, body] : points)
    if (global != expect++)
      throw SimError("shard merge: missing point " +
                     std::to_string(expect - 1) +
                     " (incomplete shard set?)");

  std::string out = docs[0].header;
  usize emitted = 0;
  for (const auto& [global, body] : points) {
    out += kBlockOpen;
    out += *body;
    out += ++emitted == points.size() ? "    }\n" : "    },\n";
  }
  out += docs[0].footer;
  return out;
}

}  // namespace sempe::sim
