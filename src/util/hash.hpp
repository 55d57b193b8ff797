// Content hashing: FNV-1a 64, the one hash behind spec hashes, sweep-file
// fingerprints and the identity of file-backed workloads.
#pragma once

#include <cstdint>
#include <string_view>

namespace drowsy::util {

/// FNV-1a 64-bit over raw bytes.  Not cryptographic; used to detect
/// accidental drift (edited sweep or trace files, mismatched specs), not
/// tampering.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

}  // namespace drowsy::util
