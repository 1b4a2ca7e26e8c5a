#include "obs/http_server.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/export.hpp"
#include "obs/span.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define VPSCOPE_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define VPSCOPE_HAVE_SOCKETS 0
#endif

namespace vpscope::obs {

namespace {

bool token_char(char c) {
  // RFC 7230 tchar set.
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
      (c >= '0' && c <= '9'))
    return true;
  return std::strchr("!#$%&'*+-.^_`|~", c) != nullptr;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

std::string_view status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 431: return "Request Header Fields Too Large";
    default: return "Error";
  }
}

}  // namespace

std::optional<std::string> HttpRequest::query_param(
    std::string_view key) const {
  std::string_view rest = query;
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      if (pair == key) return std::string{};
      continue;
    }
    if (pair.substr(0, eq) == key) return std::string(pair.substr(eq + 1));
  }
  return std::nullopt;
}

bool parse_http_request(std::string_view head, HttpRequest& out) {
  out = HttpRequest{};
  // Request line: METHOD SP target SP HTTP/x.y CRLF
  const std::size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) return false;
  const std::string_view line = head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 == sp1 + 1) return false;
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  for (char c : method)
    if (!token_char(c)) return false;
  if (version.size() != 8 || version.substr(0, 7) != "HTTP/1." ||
      (version[7] != '0' && version[7] != '1'))
    return false;
  if (target.empty() || target[0] != '/') return false;
  for (char c : target)
    if (static_cast<unsigned char>(c) <= 0x20 ||
        static_cast<unsigned char>(c) >= 0x7f)
      return false;
  out.method = std::string(method);
  const std::size_t qmark = target.find('?');
  if (qmark == std::string_view::npos) {
    out.path = std::string(target);
  } else {
    out.path = std::string(target.substr(0, qmark));
    out.query = std::string(target.substr(qmark + 1));
  }
  // Header fields until the blank line.
  std::string_view rest = head.substr(line_end + 2);
  while (!rest.empty()) {
    const std::size_t eol = rest.find("\r\n");
    if (eol == std::string_view::npos) return false;  // no blank-line end
    const std::string_view field = rest.substr(0, eol);
    rest = rest.substr(eol + 2);
    if (field.empty()) return true;  // blank line: done
    const std::size_t colon = field.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    const std::string_view name = field.substr(0, colon);
    for (char c : name)
      if (!token_char(c)) return false;
    std::string_view value = field.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t'))
      value.remove_prefix(1);
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t'))
      value.remove_suffix(1);
    for (char c : value)
      if (static_cast<unsigned char>(c) < 0x20 &&
          c != '\t')  // no control bytes in values
        return false;
    out.headers.emplace_back(std::string(name), std::string(value));
    if (out.headers.size() > 100) return false;  // header-count bomb
  }
  return false;  // ran out of input before the blank line
}

HttpServer::HttpServer() : HttpServer(Options{}) {}

HttpServer::HttpServer(Options options) : options_(std::move(options)) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::route(std::string path, Handler handler) {
  routes_.emplace_back(std::move(path), std::move(handler));
}

#if VPSCOPE_HAVE_SOCKETS

bool HttpServer::start(std::string* error) {
  if (running_.load(std::memory_order_acquire)) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error) *error = "socket() failed";
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    if (error) *error = "bad bind address: " + options_.bind_address;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    if (error) *error = "bind/listen failed on " + options_.bind_address;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0)
    bound_port_ = ntohs(addr.sin_port);
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void HttpServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void HttpServer::accept_loop() {
  // poll() with a short timeout instead of a blocking accept: the stop flag
  // is checked every 50 ms without any cross-thread socket shutdown games.
  pollfd pfd{};
  pfd.fd = listen_fd_;
  pfd.events = POLLIN;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int ready = ::poll(&pfd, 1, 50);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    serve_connection(fd);
    ::close(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  timeval tv{};
  tv.tv_sec = options_.io_timeout_ms / 1000;
  tv.tv_usec = (options_.io_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  std::string head;
  head.reserve(512);
  int status = 0;
  while (head.find("\r\n\r\n") == std::string::npos) {
    if (head.size() > options_.max_request_bytes) {
      status = 431;  // oversized request head
      break;
    }
    char buf[1024];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {  // timeout (slow client) or close: drop silently-ish
      status = head.empty() ? -1 : 408;
      break;
    }
    head.append(buf, static_cast<std::size_t>(n));
  }
  if (status == -1) return;  // client never sent anything: just close

  HttpRequest request;
  HttpResponse response;
  if (status != 0) {
    response.status = status;
    response.body = std::string(status_text(status)) + "\n";
  } else if (!parse_http_request(
                 head.substr(0, head.find("\r\n\r\n") + 4), request)) {
    response.status = 400;
    response.body = "Bad Request\n";
  } else if (request.method != "GET" && request.method != "HEAD") {
    response.status = 405;
    response.body = "Method Not Allowed\n";
  } else {
    const Handler* handler = nullptr;
    for (const auto& [path, h] : routes_)
      if (path == request.path) {
        handler = &h;
        break;
      }
    if (!handler) {
      response.status = 404;
      response.body = "Not Found\n";
    } else {
      response = (*handler)(request);
    }
  }

  std::string out;
  out.reserve(128 + response.body.size());
  out += "HTTP/1.1 ";
  append_u64(out, static_cast<std::uint64_t>(response.status));
  out += ' ';
  out += status_text(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  append_u64(out, response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  if (request.method != "HEAD") out += response.body;

  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // slow/gone client: give up, never block the loop
    sent += static_cast<std::size_t>(n);
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);
}

#else  // !VPSCOPE_HAVE_SOCKETS

bool HttpServer::start(std::string* error) {
  if (error) *error = "sockets unavailable on this platform";
  return false;
}
void HttpServer::stop() {}
void HttpServer::accept_loop() {}
void HttpServer::serve_connection(int) {}

#endif

std::string healthz_json(const PipelineObs& obs, std::string_view app_status) {
  // The exact identity, recomputed the way snapshot() does: component
  // counters first (acquire), the staged gauge after, the grand total last.
  std::uint64_t completed = 0;
  std::uint64_t stranded = 0;
  for (int i = 0; i < obs.n_shards(); ++i) {
    const std::uint64_t done =
        obs.packets_completed.value(i, std::memory_order_acquire);
    completed += done;
    const std::uint64_t sent =
        obs.packets_enqueued.value(i, std::memory_order_acquire);
    if (sent > done) stranded += sent - done;
  }
  const std::uint64_t non_ip =
      obs.packets_non_ip.total(std::memory_order_acquire);
  const std::uint64_t dropped_payload =
      obs.packets_dropped_payload.total(std::memory_order_acquire);
  const std::uint64_t dropped_handshake =
      obs.packets_dropped_handshake.total(std::memory_order_acquire);
  const std::int64_t staged = obs.packets_staged.value(
      obs.dispatcher_slot(), std::memory_order_acquire);
  if (staged > 0) stranded += static_cast<std::uint64_t>(staged);
  const std::uint64_t total = obs.packets_total.total();
  const std::uint64_t accounted =
      completed + non_ip + dropped_payload + dropped_handshake + stranded;
  const std::int64_t bypassed = obs.shards_bypassed.total();

  std::string out;
  out.reserve(512);
  // A quiescent process balances exactly; mid-dispatch, in-flight packets
  // make accounted <= total (never >), so ok means "not leaking".
  out += "{\"ok\":";
  out += accounted <= total ? "true" : "false";
  out += ",\"identity\":{\"packets_total\":";
  append_u64(out, total);
  out += ",\"accounted\":";
  append_u64(out, accounted);
  out += ",\"completed\":";
  append_u64(out, completed);
  out += ",\"non_ip\":";
  append_u64(out, non_ip);
  out += ",\"dropped_payload\":";
  append_u64(out, dropped_payload);
  out += ",\"dropped_handshake\":";
  append_u64(out, dropped_handshake);
  out += ",\"stranded\":";
  append_u64(out, stranded);
  out += ",\"balanced\":";
  out += accounted == total ? "true" : "false";
  out += "},\"watchdog\":{\"shards_bypassed\":";
  append_u64(out, bypassed > 0 ? static_cast<std::uint64_t>(bypassed) : 0);
  out += "},\"tracing\":{\"spans\":";
  out += obs.spans_enabled() ? "true" : "false";
  out += "},\"app\":";
  out += app_status.empty() ? std::string_view("null") : app_status;
  out += '}';
  return out;
}

void install_introspection(HttpServer& server, const PipelineObs& obs,
                           IntrospectionOptions options) {
  server.route("/metrics", [&obs](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = prometheus_text(obs.registry());
    return r;
  });
  server.route("/snapshot", [&obs](const HttpRequest&) {
    HttpResponse r;
    r.content_type = "application/json";
    r.body = json_text(obs.registry());
    return r;
  });
  server.route("/healthz",
               [&obs, app = options.app_status](const HttpRequest&) {
                 HttpResponse r;
                 r.content_type = "application/json";
                 r.body = healthz_json(obs, app ? app() : std::string{});
                 return r;
               });
  server.route(
      "/trace", [&obs, def = options.default_trace_spans](
                    const HttpRequest& request) {
        std::size_t n = def;
        if (const auto param = request.query_param("n")) {
          char* end = nullptr;
          const unsigned long long v = std::strtoull(param->c_str(), &end, 10);
          if (end && *end == '\0' && v > 0) n = static_cast<std::size_t>(v);
        }
        HttpResponse r;
        r.content_type = "application/json";
        r.body = chrome_trace_json(obs.recent_spans(n));
        return r;
      });
}

}  // namespace vpscope::obs
