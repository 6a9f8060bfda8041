#include "servers/base.h"

#include <stdexcept>

namespace gfwsim::servers {

ProxyServerBase::ProxyServerBase(net::EventLoop& loop, ServerConfig config,
                                 Upstream* upstream, std::uint64_t rng_seed)
    : loop_(loop), config_(std::move(config)), upstream_(upstream), rng_(rng_seed) {
  if (config_.cipher == nullptr) {
    throw std::invalid_argument("ProxyServerBase: cipher must be set");
  }
  if (upstream_ == nullptr) {
    throw std::invalid_argument("ProxyServerBase: upstream must be set");
  }
  key_ = proxy::master_key(*config_.cipher, config_.password);
}

ProxyServerBase::~ProxyServerBase() {
  for (auto& [conn, session] : sessions_) {
    if (session->idle_timer != 0) loop_.cancel(session->idle_timer);
  }
}

void ProxyServerBase::install(net::Host& host, std::uint16_t port) {
  host.listen(port, acceptor());
}

net::Host::Acceptor ProxyServerBase::acceptor() {
  return [this](std::shared_ptr<net::Connection> conn) { accept(std::move(conn)); };
}

ProxyServerBase::SessionBase* ProxyServerBase::find(net::Connection* conn) {
  const auto it = sessions_.find(conn);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void ProxyServerBase::accept(std::shared_ptr<net::Connection> conn) {
  auto session = make_session();
  session->conn = conn;
  net::Connection* raw = conn.get();

  net::ConnectionCallbacks cb;
  cb.on_data = [this, raw](ByteSpan data) { on_bytes(raw, data); };
  cb.on_fin = [this, raw] { destroy(raw); };
  cb.on_rst = [this, raw] { destroy(raw); };
  conn->set_callbacks(std::move(cb));

  arm_idle_timer(*session);
  sessions_.emplace(raw, std::move(session));
}

void ProxyServerBase::arm_idle_timer(SessionBase& session) {
  if (session.idle_timer != 0) loop_.cancel(session.idle_timer);
  net::Connection* raw = session.conn.get();
  session.idle_timer = loop_.schedule_after(config_.idle_timeout, [this, raw] {
    if (SessionBase* s = find(raw)) {
      s->idle_timer = 0;
      close_session(*s);
    }
  });
}

void ProxyServerBase::on_bytes(net::Connection* conn, ByteSpan data) {
  SessionBase* session = find(conn);
  if (session == nullptr) return;
  arm_idle_timer(*session);
  append(session->buffer, data);
  if (!session->drained) handle_data(*session);
}

void ProxyServerBase::destroy(net::Connection* conn) {
  const auto it = sessions_.find(conn);
  if (it == sessions_.end()) return;
  if (it->second->idle_timer != 0) loop_.cancel(it->second->idle_timer);
  sessions_.erase(it);
}

void ProxyServerBase::close_session(SessionBase& session) {
  auto conn = session.conn;  // keep alive past destroy()
  destroy(conn.get());
  conn->close();
}

void ProxyServerBase::abort_session(SessionBase& session) {
  auto conn = session.conn;
  destroy(conn.get());
  conn->abort();
}

void ProxyServerBase::respond(SessionBase& session, ByteSpan plaintext) {
  if (!session.egress) session.egress.emplace(*config_.cipher, key_, rng_);
  session.conn->send(session.egress->encrypt(plaintext));
}

void ProxyServerBase::start_upstream(SessionBase& session, const proxy::TargetSpec& target,
                                     Bytes initial_data) {
  const UpstreamOutcome outcome = upstream_->connect(target, initial_data);
  net::Connection* raw = session.conn.get();
  switch (outcome.kind) {
    case UpstreamOutcome::Kind::kFailFast:
      // ss-libev closes the client connection when the remote connection
      // fails: the client sees FIN/ACK after a short delay.
      loop_.schedule_after(outcome.delay, [this, raw] {
        if (SessionBase* s = find(raw)) close_session(*s);
      });
      break;
    case UpstreamOutcome::Kind::kHang:
      // SYN retransmission limbo; the peer gives up first.
      break;
    case UpstreamOutcome::Kind::kConnected:
      loop_.schedule_after(outcome.delay, [this, raw, response = outcome.response] {
        if (SessionBase* s = find(raw)) respond(*s, response);
      });
      break;
  }
}

}  // namespace gfwsim::servers
