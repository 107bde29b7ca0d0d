// Strict unsigned decimal parsing, shared by every text input the
// simulator reads a count from: environment variables, workload spec
// parameters, cached point blobs, shard documents and command-line flags.
// strtoull alone is too lenient for any of them: it skips leading
// whitespace, accepts a sign (wrapping "-1" to 2^64-1), stops at the first
// non-digit and saturates on overflow.
#pragma once

#include <limits>
#include <optional>
#include <string_view>

#include "util/types.h"

namespace sempe {

/// `text` as an unsigned decimal number: one or more ASCII digits and
/// nothing else (no sign, whitespace or base prefix) whose value fits a
/// u64. nullopt for anything else; each caller reports that in its own
/// error type.
inline std::optional<u64> parse_decimal(std::string_view text) {
  if (text.empty()) return std::nullopt;
  u64 value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const u64 digit = static_cast<u64>(c - '0');
    if (value > (std::numeric_limits<u64>::max() - digit) / 10)
      return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace sempe
