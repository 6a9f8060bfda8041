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
  sessions_.for_each([this](const std::unique_ptr<SessionBase>& session) {
    loop_.cancel(session->idle_timer);
  });
}

void ProxyServerBase::install(net::Host& host, std::uint16_t port) {
  host.listen(port, acceptor());
}

net::Host::Acceptor ProxyServerBase::acceptor() {
  return [this](net::ConnectionHandle conn) { accept(std::move(conn)); };
}

ProxyServerBase::SessionBase* ProxyServerBase::find(SessionId id) {
  std::unique_ptr<SessionBase>* session = sessions_.get(id);
  return session == nullptr ? nullptr : session->get();
}

void ProxyServerBase::accept(net::ConnectionHandle conn) {
  const SessionId id = sessions_.emplace(make_session());
  SessionBase& session = *find(id);
  session.id = id;

  net::ConnectionCallbacks cb;
  cb.on_data = [this, id](ByteSpan data) { on_bytes(id, data); };
  cb.on_fin = [this, id] { destroy(id); };
  cb.on_rst = [this, id] { destroy(id); };
  conn->set_callbacks(std::move(cb));
  session.conn = std::move(conn);

  arm_idle_timer(session);
}

void ProxyServerBase::arm_idle_timer(SessionBase& session) {
  loop_.cancel(session.idle_timer);
  session.idle_timer = loop_.schedule_after(config_.idle_timeout, [this, id = session.id] {
    if (SessionBase* s = find(id)) {
      s->idle_timer = 0;
      close_session(*s);
    }
  });
}

void ProxyServerBase::on_bytes(SessionId id, ByteSpan data) {
  SessionBase* session = find(id);
  if (session == nullptr) return;
  arm_idle_timer(*session);
  append(session->buffer, data);
  if (!session->drained) handle_data(*session);
}

void ProxyServerBase::destroy(SessionId id) {
  SessionBase* session = find(id);
  if (session == nullptr) return;
  loop_.cancel(session->idle_timer);
  sessions_.erase(id);
}

net::ConnectionHandle ProxyServerBase::end_session(SessionBase& session) {
  net::ConnectionHandle conn = std::move(session.conn);  // outlives destroy()
  destroy(session.id);
  return conn;
}

void ProxyServerBase::close_session(SessionBase& session) { end_session(session)->close(); }

void ProxyServerBase::abort_session(SessionBase& session) { end_session(session)->abort(); }

void ProxyServerBase::respond(SessionBase& session, ByteSpan plaintext) {
  if (!session.egress) session.egress.emplace(*config_.cipher, key_, rng_);
  session.conn->send(session.egress->encrypt(plaintext));
}

void ProxyServerBase::start_upstream(SessionBase& session, const proxy::TargetSpec& target,
                                     Bytes& plain, std::size_t consumed) {
  const Bytes initial(plain.begin() + static_cast<std::ptrdiff_t>(consumed), plain.end());
  plain.clear();
  const UpstreamOutcome outcome = upstream_->connect(target, initial);
  const SessionId id = session.id;
  switch (outcome.kind) {
    case UpstreamOutcome::Kind::kFailFast:
      // ss-libev closes the client connection when the remote connection
      // fails: the client sees FIN/ACK after a short delay.
      loop_.schedule_after(outcome.delay, [this, id] {
        if (SessionBase* s = find(id)) close_session(*s);
      });
      break;
    case UpstreamOutcome::Kind::kHang:
      // SYN retransmission limbo; the peer gives up first.
      break;
    case UpstreamOutcome::Kind::kConnected:
      loop_.schedule_after(outcome.delay, [this, id, response = outcome.response] {
        if (SessionBase* s = find(id)) respond(*s, response);
      });
      break;
  }
}

}  // namespace gfwsim::servers
