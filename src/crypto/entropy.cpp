#include "crypto/entropy.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace gfwsim::crypto {

namespace {

// Precomputed expectation curve. Lengths beyond the table fall back to
// the (stateless, deterministic) reference computation; no locks, no
// lazy initialization — parallel campaign shards share nothing here.
constexpr std::array<double, 2049> kExpectedUniformEntropy = {
#include "crypto/entropy_table.inc"
};

}  // namespace

double shannon_entropy(ByteSpan data) {
  if (data.empty()) return 0.0;
  std::array<std::size_t, 256> counts{};
  for (std::uint8_t b : data) ++counts[b];
  const double n = static_cast<double>(data.size());
  // A buffer has few distinct counts (a 594-byte random payload about
  // ten), so each count's term p*log2(p) is computed once per call. The
  // sum is the plain one, term by term in bin order, so the result is
  // bit-identical to it. The memo covers counts up to 256, which holds
  // every count of a random buffer up to 16 KiB (counts near 64); a
  // larger count computes its term directly.
  constexpr std::size_t kMemo = 257;
  std::array<double, kMemo> term;  // term[c] is read only once known[c] is set
  std::array<bool, kMemo> known{};
  double h = 0.0;
  for (std::size_t c : counts) {
    if (c == 0) continue;
    if (c < kMemo) {
      if (!known[c]) {
        const double p = static_cast<double>(c) / n;
        term[c] = p * std::log2(p);
        known[c] = true;
      }
      h -= term[c];
    } else {
      const double p = static_cast<double>(c) / n;
      h -= p * std::log2(p);
    }
  }
  return h;
}

double normalized_entropy(ByteSpan data) {
  return normalized_entropy(shannon_entropy(data), data.size());
}

double normalized_entropy(double bits, std::size_t len) {
  if (len <= 1) return len == 0 ? 0.0 : 1.0;
  const double max_bits = std::log2(static_cast<double>(std::min<std::size_t>(256, len)));
  if (max_bits <= 0.0) return 1.0;
  return std::min(1.0, bits / max_bits);
}

double expected_uniform_entropy_reference(std::size_t len) {
  if (len <= 1) return 0.0;
  // Deterministic Monte-Carlo expectation. Classifiers use this as a
  // "looks like ciphertext" reference curve, so accuracy matters more
  // than closed form (analytic bias corrections are poor when the sample
  // size is comparable to the alphabet size).
  Rng rng(0xe47a11ce00000000ull ^ static_cast<std::uint64_t>(len));
  constexpr int kTrials = 48;
  double sum = 0.0;
  for (int t = 0; t < kTrials; ++t) sum += shannon_entropy(rng.bytes(len));
  return sum / kTrials;
}

double expected_uniform_entropy(std::size_t len) {
  if (len < kExpectedUniformEntropy.size()) return kExpectedUniformEntropy[len];
  return expected_uniform_entropy_reference(len);
}

namespace {

// Source entropy of the "uniform over k-1 values with weight q each, plus
// one value with weight 1-(k-1)q" distribution.
double mixture_entropy(std::size_t k, double q) {
  if (k == 1) return 0.0;
  const double rest = 1.0 - static_cast<double>(k - 1) * q;
  double h = 0.0;
  if (q > 0.0) h -= static_cast<double>(k - 1) * q * std::log2(q);
  if (rest > 0.0) h -= rest * std::log2(rest);
  return h;
}

}  // namespace

EntropySource::EntropySource(double bits, Rng& rng) {
  if (bits < 0.0 || bits > 8.0) {
    throw std::invalid_argument("EntropySource: bits must be in [0, 8]");
  }

  // Random permutation of byte values so that the support set varies.
  std::vector<std::uint8_t> perm(256);
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.uniform(0, i)]);
  }

  // Smallest alphabet that can reach the target: K = ceil(2^bits), then
  // tilt the last symbol's probability and bisect on q.
  const std::size_t k = std::min<std::size_t>(
      256, static_cast<std::size_t>(std::ceil(std::exp2(bits))) + (bits == 0.0 ? 0 : 1));
  const std::size_t alphabet_size = std::max<std::size_t>(1, k);
  alphabet_.assign(perm.begin(), perm.begin() + static_cast<std::ptrdiff_t>(alphabet_size));

  if (alphabet_size == 1 || bits == 0.0) {
    alphabet_.resize(1);
    probabilities_ = {1.0};
    return;
  }

  // H is monotone increasing in q on (0, 1/k]; bisection converges fast.
  double lo = 0.0;
  double hi = 1.0 / static_cast<double>(alphabet_size);
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mixture_entropy(alphabet_size, mid) < bits) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double q = 0.5 * (lo + hi);
  probabilities_.assign(alphabet_size, q);
  probabilities_.back() = 1.0 - static_cast<double>(alphabet_size - 1) * q;
}

Bytes EntropySource::generate(std::size_t len, Rng& rng) const {
  Bytes out(len);
  if (alphabet_.size() == 1) {
    std::fill(out.begin(), out.end(), alphabet_[0]);
    return out;
  }
  // Build a cumulative table once per call; alphabets are small.
  std::vector<double> cumulative(probabilities_.size());
  std::partial_sum(probabilities_.begin(), probabilities_.end(), cumulative.begin());
  for (auto& b : out) {
    const double u = rng.uniform01();
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
    const std::size_t idx =
        std::min<std::size_t>(static_cast<std::size_t>(it - cumulative.begin()),
                              alphabet_.size() - 1);
    b = alphabet_[idx];
  }
  return out;
}

}  // namespace gfwsim::crypto
