#include "client/ss_client.h"

#include <algorithm>
#include <stdexcept>

#include "servers/hardened.h"

namespace gfwsim::client {

SsClient::SsClient(net::Host& host, net::Endpoint server, ClientConfig config,
                   std::uint64_t rng_seed)
    : host_(host), server_(server), config_(std::move(config)), rng_(rng_seed) {
  if (config_.cipher == nullptr) {
    throw std::invalid_argument("SsClient: cipher must be set");
  }
  key_ = proxy::master_key(*config_.cipher, config_.password);
}

std::unique_ptr<Fetch> SsClient::fetch(const proxy::TargetSpec& target,
                                       ByteSpan initial_data) {
  std::unique_ptr<Fetch> fetch(new Fetch(*this));
  fetch->first_flight_.reset(new Fetch::FirstFlight{
      proxy::Encryptor(*config_.cipher, key_, rng_), target,
      Bytes(initial_data.begin(), initial_data.end())});
  fetch->decryptor_ = std::make_unique<proxy::Decryptor>(*config_.cipher, key_);
  return start(std::move(fetch));
}

std::unique_ptr<Fetch> SsClient::send_raw(Bytes payload) {
  std::unique_ptr<Fetch> fetch(new Fetch(*this));
  fetch->first_flight_.reset(new Fetch::FirstFlight{std::nullopt, {}, std::move(payload)});
  return start(std::move(fetch));
}

std::unique_ptr<Fetch> SsClient::start(std::unique_ptr<Fetch> fetch) {
  Fetch* f = fetch.get();
  net::ConnectionCallbacks cb;
  cb.on_connected = [f] { f->client_.on_connected(*f); };
  cb.on_data = [f](ByteSpan data) { f->client_.on_data(*f, data); };
  cb.on_rst = [f] {
    f->state_ = Fetch::State::kFailed;
    f->stop_reading();
  };
  cb.on_fin = [f] {
    if (f->state_ != Fetch::State::kDone) f->state_ = Fetch::State::kFailed;
    f->stop_reading();
  };
  fetch->conn_ = host_.connect(server_, std::move(cb));
  return fetch;
}

void SsClient::on_connected(Fetch& fetch) {
  const std::unique_ptr<Fetch::FirstFlight> flight = std::move(fetch.first_flight_);
  if (!flight) return;
  Bytes packet;
  if (!flight->encryptor) {
    packet = std::move(flight->data);
  } else if (config_.embed_timestamp) {
    Bytes payload = servers::hardened_timestamp_prefix(fetch.conn_->loop().now());
    append(payload, proxy::encode_target(flight->target));
    append(payload, flight->data);
    packet = flight->encryptor->encrypt(payload);
  } else {
    packet = proxy::build_first_packet(*flight->encryptor, flight->target, flight->data,
                                       config_.merge_header_and_data);
  }
  fetch.first_packet_size_ = packet.size();
  fetch.conn_->send(packet);
  fetch.state_ = Fetch::State::kAwaitingResponse;
}

void SsClient::on_data(Fetch& fetch, ByteSpan data) {
  if (!fetch.reading_) return;
  auto status = proxy::Decryptor::Status::kData;
  ByteSpan plain = data;
  if (fetch.decryptor_) {
    plain_.clear();
    status = fetch.decryptor_->feed(data, plain_);
    plain = plain_;
  }
  const std::size_t kept = std::min(plain.size(), Fetch::kHeadBytes - fetch.head_size_);
  std::copy_n(plain.begin(), kept, fetch.head_.begin() + fetch.head_size_);
  fetch.head_size_ += kept;
  fetch.response_bytes_ += plain.size();

  if (status == proxy::Decryptor::Status::kAuthError) {
    fetch.state_ = Fetch::State::kFailed;
    fetch.stop_reading();
    fetch.conn_->abort();
  } else if (fetch.response_bytes_ > 0) {
    fetch.state_ = Fetch::State::kDone;
  }
}

}  // namespace gfwsim::client
