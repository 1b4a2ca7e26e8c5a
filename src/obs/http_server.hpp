// Embedded scrape server (DESIGN.md §5k): a minimal blocking-accept
// HTTP/1.1 endpoint on its own thread — no third-party deps — that makes a
// live process scrapeable instead of file-export-only. Routes installed by
// install_introspection():
//
//   /metrics    Prometheus text exposition of the registry
//   /healthz    drop-accounting identity + watchdog + lifecycle state, JSON
//   /snapshot   full JSON registry snapshot
//   /trace?n=K  the most recent K spans and lifecycle instants as Chrome
//               trace_event JSON (curl it straight into Perfetto)
//
// Threat model: this is an operator loopback port, not an internet-facing
// service. It binds 127.0.0.1 by default, serves GET only, caps request
// size (oversized requests are rejected with 431), applies socket I/O
// timeouts so a slow client cannot wedge the accept loop, and handles one
// connection at a time (Connection: close) — a scraper, not a web server.
// The request-line/header parser is a pure function, fuzzed with the PR-3
// structure-aware mutator in the `fuzz` lane.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/pipeline_obs.hpp"

namespace vpscope::obs {

struct HttpRequest {
  std::string method;
  std::string path;   // decoded target up to '?'
  std::string query;  // raw query string (no '?')
  std::vector<std::pair<std::string, std::string>> headers;

  /// First value of `key` in the query string, percent-decoding skipped
  /// (the introspection routes only take small integers).
  std::optional<std::string> query_param(std::string_view key) const;
};

/// Parses an HTTP/1.1 request head (everything up to the blank line).
/// Returns false on any malformed input; never throws, never reads past
/// `head`. Pure — the fuzz lane feeds it mutated bytes directly.
bool parse_http_request(std::string_view head, HttpRequest& out);

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpServer {
 public:
  struct Options {
    /// Loopback by default (threat model above); "0.0.0.0" is an explicit
    /// operator decision.
    std::string bind_address = "127.0.0.1";
    /// 0 = ephemeral; read the bound port back via port().
    std::uint16_t port = 0;
    /// Request heads larger than this are answered 431 and dropped.
    std::size_t max_request_bytes = 8192;
    /// Per-connection socket send/recv timeout; a slow client is cut off,
    /// never the accept loop.
    int io_timeout_ms = 2000;
    int backlog = 16;
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer();  // default Options (out-of-line: nested-class default
                 // member initializers are a complete-class context)
  explicit HttpServer(Options options);
  ~HttpServer();

  /// Registers a handler for an exact path. Call before start().
  void route(std::string path, Handler handler);

  /// Binds, listens and launches the accept thread. Returns false (with
  /// `error` filled) on bind/listen failure; safe to call once.
  bool start(std::string* error = nullptr);

  /// Stops the accept loop and joins the thread. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (resolves port 0), valid after start().
  std::uint16_t port() const { return bound_port_; }
  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

 private:
  void accept_loop();
  void serve_connection(int fd);

  Options options_;
  std::vector<std::pair<std::string, Handler>> routes_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  std::thread thread_;
};

struct IntrospectionOptions {
  /// Extra JSON value merged into /healthz under "app" (lifecycle status,
  /// front-end state); called on the server thread, must be thread-safe.
  /// Empty function -> "app": null.
  std::function<std::string()> app_status;
  /// Default span count for /trace without ?n=.
  std::size_t default_trace_spans = 512;
};

/// Installs /metrics, /healthz, /snapshot and /trace on `server`, backed by
/// `obs` (which must outlive the server). All handlers read only registry
/// atomics and ring copies — scraping never perturbs the data path.
void install_introspection(HttpServer& server, const PipelineObs& obs,
                           IntrospectionOptions options = {});

/// The /healthz document: the exact drop-accounting identity recomputed
/// from the registry, watchdog/bypass state, tracing state, plus the
/// caller's app status (raw JSON value; empty -> null).
std::string healthz_json(const PipelineObs& obs, std::string_view app_status);

}  // namespace vpscope::obs
