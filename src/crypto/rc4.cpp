#include "crypto/rc4.h"

#include <stdexcept>

namespace gfwsim::crypto {

Rc4::Rc4(ByteSpan key) {
  if (key.empty() || key.size() > 256) {
    throw std::invalid_argument("Rc4: key must be 1..256 bytes");
  }
  for (int i = 0; i < 256; ++i) s_[i] = static_cast<std::uint8_t>(i);
  std::uint8_t j = 0;
  std::size_t k = 0;  // i % key.size(), without the division
  for (int i = 0; i < 256; ++i) {
    j = static_cast<std::uint8_t>(j + s_[i] + key[k]);
    std::swap(s_[i], s_[j]);
    if (++k == key.size()) k = 0;
  }
}

void Rc4::transform(ByteSpan data, std::uint8_t* out) {
  for (std::size_t n = 0; n < data.size(); ++n) {
    i_ = static_cast<std::uint8_t>(i_ + 1);
    j_ = static_cast<std::uint8_t>(j_ + s_[i_]);
    std::swap(s_[i_], s_[j_]);
    out[n] = data[n] ^ s_[static_cast<std::uint8_t>(s_[i_] + s_[j_])];
  }
}

}  // namespace gfwsim::crypto
