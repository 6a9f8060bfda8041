#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "crypto/entropy.h"
#include "gfw/classifier.h"

namespace gfwsim::gfw {
namespace {

TEST(Classifier, TinyPayloadsNeverTrigger) {
  PassiveClassifier classifier;
  crypto::Rng rng(1);
  for (const std::size_t len : {1u, 10u, 30u, 49u}) {
    EXPECT_EQ(classifier.suspicion(rng.bytes(len)), 0.0) << len;
  }
}

TEST(Classifier, MidBandHighEntropyIsTheSweetSpot) {
  PassiveClassifier classifier;
  crypto::Rng rng(2);
  // 505 % 16 == 9... careful: want remainder 2 in the 384-687 band.
  const Bytes in_band = rng.bytes(594);   // 594 % 16 == 2
  const Bytes too_long = rng.bytes(1400);
  const Bytes too_short = rng.bytes(40);
  EXPECT_GT(classifier.suspicion(in_band), classifier.suspicion(too_long));
  EXPECT_GT(classifier.suspicion(in_band), classifier.suspicion(too_short));
}

// The two-histogram formula suspicion() used before it measured the
// entropy once: shannon_entropy() for the raw term and a second
// histogram inside normalized_entropy(), spelled out here.
double two_histogram_suspicion(const PassiveClassifier& c, ByteSpan payload) {
  if (payload.empty()) return 0.0;
  double entropy_weight = 1.0;
  if (c.config().use_entropy_feature) {
    const double h = crypto::shannon_entropy(payload);
    double h_norm = 1.0;
    if (payload.size() > 1) {
      const double max_bits =
          std::log2(static_cast<double>(std::min<std::size_t>(256, payload.size())));
      h_norm = std::min(1.0, crypto::shannon_entropy(payload) / max_bits);
    }
    const double effective = std::max(h / 8.0, h_norm);
    entropy_weight = 0.04 + 0.96 * effective * effective;
  }
  const double w = c.length_weight(payload.size()) * entropy_weight;
  return std::clamp(c.config().base_rate * w, 0.0, 1.0);
}

TEST(Classifier, SuspicionMatchesTwoHistogramFormulaExactly) {
  crypto::Rng rng(9);
  ClassifierConfig no_length;
  no_length.use_length_feature = false;
  const PassiveClassifier classifiers[] = {PassiveClassifier{}, PassiveClassifier{no_length}};
  for (std::size_t len = 1; len <= 2048; ++len) {
    const crypto::EntropySource source(rng.uniform_real(0.0, 8.0), rng);
    const Bytes payload = source.generate(len, rng);
    for (const PassiveClassifier& c : classifiers) {
      EXPECT_EQ(c.suspicion(payload), two_histogram_suspicion(c, payload)) << "len=" << len;
    }
  }
}

TEST(Classifier, StairStepRemainderPreference) {
  PassiveClassifier classifier;
  // [168,263]: remainder 9 strongly preferred.
  EXPECT_GT(classifier.length_weight(169), 10 * classifier.length_weight(170));
  EXPECT_EQ(169 % 16, 9);
  // [384,687]: remainder 2 strongly preferred.
  EXPECT_GT(classifier.length_weight(594), 10 * classifier.length_weight(595));
  EXPECT_EQ(594 % 16, 2);
  // [264,383]: both 9 and 2 acceptable.
  EXPECT_GT(classifier.length_weight(265), 5 * classifier.length_weight(266));  // 265%16==9
  EXPECT_GT(classifier.length_weight(274), 5 * classifier.length_weight(266));  // 274%16==2
}

TEST(Classifier, EntropyIncreasesSuspicionRoughly4x) {
  PassiveClassifier classifier;
  crypto::Rng rng(3);
  // Same length (remainder 2, mid band), different entropies.
  crypto::EntropySource low(3.0, rng), high(7.9, rng);
  const Bytes low_payload = low.generate(594, rng);
  const Bytes high_payload = high.generate(594, rng);
  const double ratio =
      classifier.suspicion(high_payload) / classifier.suspicion(low_payload);
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 8.0);
}

TEST(Classifier, LowEntropyIsNotExonerating) {
  // Figure 9: even entropy-0-ish packets get replayed sometimes.
  PassiveClassifier classifier;
  const Bytes constant(594, 0x41);
  EXPECT_GT(classifier.suspicion(constant), 0.0);
}

TEST(Classifier, AblationDisablesFeatures) {
  crypto::Rng rng(4);
  const Bytes odd_length = rng.bytes(595);  // disfavored remainder
  const Bytes good_length = rng.bytes(594);

  ClassifierConfig no_length;
  no_length.use_length_feature = false;
  PassiveClassifier ablated(no_length);
  EXPECT_DOUBLE_EQ(ablated.length_weight(595), 1.0);
  EXPECT_DOUBLE_EQ(ablated.length_weight(594), 1.0);
  // Suspicion now differs only through the (data-dependent) entropy term.
  EXPECT_NEAR(ablated.suspicion(odd_length), ablated.suspicion(good_length), 1e-3);

  ClassifierConfig no_entropy;
  no_entropy.use_entropy_feature = false;
  PassiveClassifier flat(no_entropy);
  const Bytes constant(594, 0x41);
  EXPECT_DOUBLE_EQ(flat.suspicion(constant), flat.suspicion(good_length));
}

TEST(Classifier, BaseRateScalesLinearly) {
  crypto::Rng rng(5);
  const Bytes payload = rng.bytes(594);
  ClassifierConfig low_config;
  low_config.base_rate = 0.001;
  ClassifierConfig high_config;
  high_config.base_rate = 0.01;
  PassiveClassifier low(low_config), high(high_config);
  EXPECT_NEAR(high.suspicion(payload) / low.suspicion(payload), 10.0, 1e-6);
}

TEST(Classifier, TriggersIsBernoulliOfSuspicion) {
  PassiveClassifier classifier({true, true, 0.5});
  crypto::Rng data_rng(6);
  const Bytes payload = data_rng.bytes(594);
  const double p = classifier.suspicion(payload);
  ASSERT_GT(p, 0.1);

  crypto::Rng rng(7);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += classifier.triggers(payload, rng);
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.02);
}

TEST(Classifier, EmptyPayloadIsIgnored) {
  PassiveClassifier classifier;
  EXPECT_EQ(classifier.suspicion({}), 0.0);
}

}  // namespace
}  // namespace gfwsim::gfw
