// SHA-256, for content-addressing cached experiment results.
//
// The cache key of an experiment is the SHA-256 of its encoded
// ExperimentParams (runtime/serialize.*), so the key changes whenever any
// behaviour-affecting parameter — or the wire format version itself —
// changes. A cryptographic digest keeps accidental collisions out of the
// picture even across campaigns of millions of experiments.
//
// Two block functions compute the same digest. On x86-64 CPUs with the SHA
// extensions (SHA-NI, plus SSE4.1 and SSSE3), chosen once per process by
// cpuid, blocks go through `sha256rnds2`; everywhere else, and as the
// reference the tests hold the hardware path to, the portable C++ one
// runs. Keys are bit-identical either way, so a cache filled on one CPU
// serves another.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace loki::util {

class Sha256 {
 public:
  /// A hasher on the fastest block function this CPU supports.
  Sha256();

  /// A hasher on the portable block function, whatever the CPU: the
  /// reference the dispatched one is tested against.
  static Sha256 portable();
  /// True when Sha256() hashes on the CPU's SHA extensions.
  static bool hardware();

  void update(const void* data, std::size_t len);
  /// Finalize and return the 32-byte digest. The object must not be updated
  /// afterwards.
  std::array<std::uint8_t, 32> finish();

 private:
  /// Folds `count` consecutive 64-byte blocks into the state.
  using BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                           std::size_t count);

  explicit Sha256(BlockFn blocks);

  BlockFn blocks_;
  std::array<std::uint32_t, 8> state_;
  std::uint64_t total_len_{0};
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_{0};
};

/// One-shot digest, rendered as 64 lowercase hex characters.
std::string sha256_hex(const std::vector<std::uint8_t>& bytes);
std::string sha256_hex(const void* data, std::size_t len);

}  // namespace loki::util
