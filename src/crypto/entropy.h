// Shannon-entropy measurement and entropy-controlled payload generation.
//
// The GFW's passive detector uses the per-byte entropy of the first data
// packet (paper section 4.2, Figure 9); the random-data experiments of
// Table 4 require clients that emit payloads with a *chosen* source
// entropy between 0 and 8 bits/byte.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/bytes.h"
#include "crypto/rng.h"

namespace gfwsim::crypto {

// Empirical Shannon entropy of the byte histogram, in bits per byte
// (0 for empty or single-repeated-byte buffers, up to 8).
double shannon_entropy(ByteSpan data);

// Empirical entropy divided by the maximum achievable for this length,
// log2(min(256, len)); in [0, 1]. Short uniform-random buffers score close
// to 1 here even though their raw entropy is bounded by log2(len).
double normalized_entropy(ByteSpan data);
// The same from an already measured shannon_entropy() `bits` of a
// `len`-byte buffer, bit-identical to normalized_entropy(data).
double normalized_entropy(double bits, std::size_t len);

// Expected empirical entropy of `len` i.i.d. uniform bytes. Useful as a
// "looks like ciphertext" reference curve for classifiers. Served from a
// precomputed constexpr table (crypto/entropy_table.inc) for len <= 2048
// — lock-free, so parallel campaign shards never serialize here — with
// the deterministic Monte-Carlo reference as fallback for longer buffers.
double expected_uniform_entropy(std::size_t len);

// The table-free deterministic Monte-Carlo computation behind the curve
// (48 trials, length-salted seed). tools/gen_entropy_table.cpp uses this
// to regenerate the table.
double expected_uniform_entropy_reference(std::size_t len);

// Generates payloads whose *source* distribution has a chosen Shannon
// entropy. The distribution is uniform over K byte values with one value's
// probability adjusted so the source entropy matches `bits` exactly
// (solved by bisection). Byte values are drawn from a random permutation
// so low-entropy payloads are not trivially "all 0x00".
class EntropySource {
 public:
  // bits must be in [0, 8].
  EntropySource(double bits, Rng& rng);

  Bytes generate(std::size_t len, Rng& rng) const;

 private:
  std::vector<std::uint8_t> alphabet_;   // candidate byte values
  std::vector<double> probabilities_;    // same length as alphabet_
};

}  // namespace gfwsim::crypto
