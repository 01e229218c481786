#include "telemetry/stats_endpoint.h"

#include <utility>

namespace privshape::telemetry {

namespace {

/// Scrape requests are tiny ("GET /metrics HTTP/1.1" + headers); anything
/// larger is not a scraper and gets dropped.
constexpr size_t kMaxRequestBytes = 8 * 1024;

/// Extracts the request path from an HTTP request line ("GET <path>
/// HTTP/1.x"). A bare-newline request ("/metrics\n" from netcat) is
/// accepted too: the first whitespace-free token is the path.
std::string_view RequestPath(std::string_view request) {
  size_t line_end = request.find_first_of("\r\n");
  std::string_view line = request.substr(0, line_end);
  size_t first_space = line.find(' ');
  if (first_space == std::string_view::npos) {
    return line.empty() ? std::string_view("/") : line;
  }
  std::string_view rest = line.substr(first_space + 1);
  size_t second_space = rest.find(' ');
  std::string_view path = rest.substr(0, second_space);
  return path.empty() ? std::string_view("/") : path;
}

}  // namespace

/// One in-flight scrape: buffered request bytes in, response bytes out.
struct StatsEndpoint::Client {
  UniqueFd fd;
  std::string request;
  std::string response;     ///< empty until the request line arrived
  size_t response_sent = 0;
  bool want_write = false;
};

StatsEndpoint::StatsEndpoint(Poller* poller, uint64_t tag_base,
                             ContentFn content)
    : poller_(poller), tag_base_(tag_base), content_(std::move(content)) {}

StatsEndpoint::~StatsEndpoint() { Close(); }

Status StatsEndpoint::Start(const std::string& host, uint16_t port) {
  if (listener_.valid()) return Status::Ok();
  auto listener = TcpListen(host, port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  PRIVSHAPE_RETURN_IF_ERROR(SetNonBlocking(listener_.get()));
  auto bound = LocalPort(listener_.get());
  if (!bound.ok()) return bound.status();
  port_ = *bound;
  clients_.resize(kMaxClients);
  return poller_->Add(listener_.get(), tag_base_);
}

void StatsEndpoint::Close() {
  if (!listener_.valid()) return;
  poller_->Remove(listener_.get());
  listener_.Reset();
  for (size_t slot = 0; slot < clients_.size(); ++slot) CloseClient(slot);
  clients_.clear();
}

void StatsEndpoint::HandleEvent(const PollEvent& event) {
  if (!listening() || !Owns(event.tag)) return;
  if (event.tag == tag_base_) {
    AcceptPending();
    return;
  }
  HandleClient(static_cast<size_t>(event.tag - tag_base_ - 1), event);
}

void StatsEndpoint::AcceptPending() {
  while (true) {
    auto accepted = TcpAccept(listener_.get());
    if (!accepted.ok() || !accepted->valid()) return;
    UniqueFd fd = std::move(*accepted);
    if (!SetNonBlocking(fd.get()).ok()) continue;
    // First free slot; a scrape burst beyond kMaxClients is refused by
    // the immediate close (the scraper retries), never by blocking the
    // event loop.
    size_t slot = clients_.size();
    for (size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i] == nullptr) {
        slot = i;
        break;
      }
    }
    if (slot == clients_.size()) continue;  // full: fd closes on scope exit
    auto client = std::make_unique<Client>();
    client->fd = std::move(fd);
    if (!poller_->Add(client->fd.get(), tag_base_ + 1 + slot).ok()) continue;
    clients_[slot] = std::move(client);
  }
}

void StatsEndpoint::CloseClient(size_t slot) {
  if (slot >= clients_.size() || clients_[slot] == nullptr) return;
  poller_->Remove(clients_[slot]->fd.get());
  clients_[slot] = nullptr;
}

void StatsEndpoint::HandleClient(size_t slot, const PollEvent& event) {
  if (slot >= clients_.size() || clients_[slot] == nullptr) return;
  Client& client = *clients_[slot];
  if (event.error) {
    CloseClient(slot);
    return;
  }
  if (event.readable && client.response.empty()) {
    char buf[4096];
    while (true) {
      auto read = RecvSome(client.fd.get(), buf, sizeof(buf));
      if (!read.ok() || read->again) break;
      if (read->eof) {
        // EOF before a complete request: nothing to serve.
        if (client.request.find('\n') == std::string::npos) {
          CloseClient(slot);
          return;
        }
        break;
      }
      client.request.append(buf, read->n);
      if (client.request.size() > kMaxRequestBytes) {
        CloseClient(slot);
        return;
      }
    }
    // A complete request line (or a blank-line-terminated header block)
    // is enough — scrape responses don't depend on headers.
    if (client.request.find('\n') != std::string::npos) {
      RespondAndFlush(slot);
    }
  }
  if (slot < clients_.size() && clients_[slot] != nullptr &&
      event.writable && !clients_[slot]->response.empty()) {
    RespondAndFlush(slot);
  }
}

void StatsEndpoint::RespondAndFlush(size_t slot) {
  Client& client = *clients_[slot];
  if (client.response.empty()) {
    std::string_view path = RequestPath(client.request);
    std::string body = content_ ? content_(path) : std::string();
    const char* content_type = path == "/metrics"
                                   ? "text/plain; version=0.0.4"
                                   : "application/json";
    client.response = "HTTP/1.0 200 OK\r\nContent-Type: ";
    client.response += content_type;
    client.response += "\r\nContent-Length: " + std::to_string(body.size());
    client.response += "\r\nConnection: close\r\n\r\n";
    client.response += body;
  }
  while (client.response_sent < client.response.size()) {
    auto sent = SendSome(
        client.fd.get(),
        std::string_view(client.response).substr(client.response_sent));
    if (!sent.ok()) {
      CloseClient(slot);
      return;
    }
    if (*sent == 0) {
      // Socket full: arm EPOLLOUT and resume on the next event.
      if (!client.want_write) {
        client.want_write = true;
        poller_->Modify(client.fd.get(), tag_base_ + 1 + slot, true);
      }
      return;
    }
    client.response_sent += *sent;
  }
  CloseClient(slot);  // response fully flushed: one-shot connection
}

}  // namespace privshape::telemetry
