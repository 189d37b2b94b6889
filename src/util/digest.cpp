#include "util/digest.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace loki::util {

namespace {

constexpr std::uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

using BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                         std::size_t count);

/// FIPS 180-4's block function in portable C++: the fallback on every CPU
/// without SHA-NI, and the reference the tests hold the hardware path to.
void blocks_portable(std::uint32_t* state, const std::uint8_t* block,
                     std::size_t count) {
  for (; count > 0; --count, block += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i)
      w[i] = (std::uint32_t(block[4 * i]) << 24) |
             (std::uint32_t(block[4 * i + 1]) << 16) |
             (std::uint32_t(block[4 * i + 2]) << 8) |
             std::uint32_t(block[4 * i + 3]);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

/// The same block function on the x86 SHA extensions. The state lives in
/// two registers as ABEF and CDGH; each `sha256rnds2` pair runs four rounds
/// of one 4-word group, and `sha256msg1`/`sha256msg2` extend the message
/// schedule four words at a time, group g+1 finished while group g runs.
__attribute__((target("sha,sse4.1,ssse3"))) void blocks_sha_ni(
    std::uint32_t* state, const std::uint8_t* block, std::size_t count) {
  // Message words are big-endian.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);  // CDAB
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; count > 0; --count, block += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
    for (std::size_t i = 0; i < 4; ++i)
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
          bswap);
#pragma GCC unroll 16
    for (std::size_t g = 0; g < 16; ++g) {
      __m128i wk = _mm_add_epi32(
          msg[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                          kRoundConstants + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g < 15) {
        // Words of group g+1: msg1 of groups g-3 and g-2 (taken at step
        // g-2), plus W[t-7..t-4] (across groups g-1 and g), then msg2.
        __m128i& next = msg[(g + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(msg[g % 4], msg[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, msg[g % 4]);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g < 13)
        msg[(g + 3) % 4] = _mm_sha256msg1_epu32(msg[(g + 3) % 4], msg[g % 4]);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);   // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);  // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));  // HGFE
}

/// SHA-NI (cpuid leaf 7, EBX bit 29) plus the SSE4.1 and SSSE3 shuffles
/// (leaf 1, ECX bits 19 and 9) the hardware path uses.
bool cpu_has_sha_ni() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse41 = (ecx & (1U << 19)) != 0;
  const bool ssse3 = (ecx & (1U << 9)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1U << 29)) != 0 && sse41 && ssse3;
}

#endif  // __x86_64__

/// The block function Sha256() uses. A function-local static: cpuid runs
/// once per process, and its initialization is thread-safe.
BlockFn dispatched_blocks() {
#if defined(__x86_64__)
  static const BlockFn fn = cpu_has_sha_ni() ? blocks_sha_ni : blocks_portable;
  return fn;
#else
  return blocks_portable;
#endif
}

}  // namespace

Sha256::Sha256() : Sha256(dispatched_blocks()) {}

Sha256::Sha256(BlockFn blocks)
    : blocks_(blocks),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

Sha256 Sha256::portable() { return Sha256(blocks_portable); }

bool Sha256::hardware() { return dispatched_blocks() != blocks_portable; }

void Sha256::update(const void* data, std::size_t len) {
  if (len == 0) return;
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < buffer_.size()) return;
    blocks_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the input; only a tail is buffered.
  const std::size_t whole = len / buffer_.size();
  if (whole > 0) {
    blocks_(state_.data(), p, whole);
    p += whole * buffer_.size();
    len -= whole * buffer_.size();
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), p, len);
    buffer_len_ = len;
  }
}

std::array<std::uint8_t, 32> Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_),
              buffer_.end(), std::uint8_t{0});
    blocks_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_),
            buffer_.begin() + 56, std::uint8_t{0});
  for (int i = 0; i < 8; ++i)
    buffer_[56 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  blocks_(state_.data(), buffer_.data(), 1);
  buffer_len_ = 0;

  std::array<std::uint8_t, 32> digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
  }
  return digest;
}

std::string sha256_hex(const void* data, std::size_t len) {
  Sha256 h;
  h.update(data, len);
  const auto digest = h.finish();
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t b : digest) {
    out.push_back(hex[b >> 4]);
    out.push_back(hex[b & 0xf]);
  }
  return out;
}

std::string sha256_hex(const std::vector<std::uint8_t>& bytes) {
  return sha256_hex(bytes.data(), bytes.size());
}

}  // namespace loki::util
