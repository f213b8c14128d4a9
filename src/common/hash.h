#ifndef OOINT_COMMON_HASH_H_
#define OOINT_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ooint {

/// The two hashes everything seeded or content-addressed builds on. Both
/// feed pinned outputs — skolem OIDs, generated worlds and delta traces,
/// fault schedules and retry jitter — so neither definition may change.

/// splitmix64's finalizer: a full 64-bit avalanche of `x` (golden-ratio
/// increment included). The FactStore mixes its interning hashes and
/// index keys with it, and the workload generators draw from it.
inline std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The splitmix64 generator: the next draw of stream `*state`, which
/// advances by the golden-ratio increment.
inline std::uint64_t SplitMix64Next(std::uint64_t* state) {
  const std::uint64_t draw = SplitMix64(*state);
  *state += 0x9e3779b97f4a7c15ull;
  return draw;
}

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// 64-bit FNV-1a over `n` bytes, continuing from hash `h`.
inline std::uint64_t Fnv1a(std::uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV-1a of a string.
inline std::uint64_t HashString(std::string_view s) {
  return Fnv1a(kFnvOffset, s.data(), s.size());
}

}  // namespace ooint

#endif  // OOINT_COMMON_HASH_H_
