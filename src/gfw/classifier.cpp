#include "gfw/classifier.h"

#include <algorithm>

#include "crypto/entropy.h"

namespace gfwsim::gfw {

double PassiveClassifier::length_weight(std::size_t len) const {
  if (!config_.use_length_feature) return 1.0;

  // Band weight (Figure 8: replayed lengths span ~160-999 with the mass
  // in 160-700).
  double band;
  if (len < 50) {
    band = 0.0;  // too short: also what makes brdgrd effective
  } else if (len < 160) {
    band = 0.04;
  } else if (len <= 700) {
    band = 1.0;
  } else if (len <= 1000) {
    band = 0.06;
  } else {
    band = 0.01;
  }
  if (band == 0.0) return 0.0;

  // Stair-step remainder preference inside the band.
  const std::size_t r = len % 16;
  double remainder = 1.0;
  if (len >= 168 && len <= 263) {
    remainder = (r == 9) ? 1.0 : 0.026;  // ~72% of replays have r==9 here
  } else if (len >= 264 && len <= 383) {
    if (r == 9) {
      remainder = 0.50;
    } else if (r == 2) {
      remainder = 0.43;
    } else {
      remainder = 0.03;
    }
  } else if (len >= 384 && len <= 687) {
    remainder = (r == 2) ? 1.0 : 0.003;  // ~96% of replays have r==2 here
  } else {
    remainder = 0.3;  // outside the calibrated regions: mild flat rate
  }
  return band * remainder;
}

double PassiveClassifier::entropy_weight(ByteSpan payload) const {
  if (!config_.use_entropy_feature) return 1.0;
  // Figure 9: replay likelihood grows with per-byte entropy; ~4x between
  // H=3.0 and H=7.2, with no hard cutoff at the low end. Short payloads
  // cannot reach 8 bits/byte empirically, so use normalized entropy to
  // avoid penalizing short ciphertext.
  const double h = crypto::shannon_entropy(payload);
  const double h_norm = crypto::normalized_entropy(h, payload.size());
  const double effective = std::max(h / 8.0, h_norm);
  return 0.04 + 0.96 * effective * effective;
}

double PassiveClassifier::suspicion(ByteSpan first_payload) const {
  if (first_payload.empty()) return 0.0;
  // A zero length weight zeroes the product whatever the entropy is, so
  // the histogram is skipped.
  const double lw = length_weight(first_payload.size());
  const double w = lw == 0.0 ? 0.0 : lw * entropy_weight(first_payload);
  return std::clamp(config_.base_rate * w, 0.0, 1.0);
}

}  // namespace gfwsim::gfw
