// Minimal blocking HTTP/1.1 endpoint for qlec_serve (DESIGN.md §13). Scope
// is deliberately tiny: loopback-oriented TCP, one request per connection
// ("Connection: close"), Content-Length bodies only — enough for scenario
// JSON in / manifest JSON out, with zero external dependencies. The parse
// and render halves are exposed as pure functions so tests cover them
// without sockets.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "util/thread_pool.hpp"

namespace qlec::serve {

struct HttpRequest {
  std::string method;  ///< upper-case ("GET", "POST", ...)
  std::string path;    ///< target without the query string ("/v1/runs")
  std::map<std::string, std::string> query;    ///< parsed query parameters
  std::map<std::string, std::string> headers;  ///< names lower-cased
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// The server's request callback. Runs on a worker thread; must be
/// thread-safe. Throwing maps to a 500 with the exception text.
using HttpHandler = std::function<void(const HttpRequest&, HttpResponse&)>;

/// Reason phrase for the handful of statuses this service emits.
const char* http_status_text(int status) noexcept;

/// "a=1&b=two" -> {{"a","1"},{"b","two"}}. Empty segments are skipped; no
/// percent-decoding (the API's parameters are plain tokens).
std::map<std::string, std::string> parse_query(const std::string& text);

/// Parses one complete request (head + body). Returns false and sets
/// `error` on malformed framing. Exposed for tests.
bool parse_http_request(const std::string& raw, HttpRequest& out,
                        std::string* error = nullptr);

/// The value of a Content-Length header: base-10 digits only (no sign, no
/// space) that fit a size_t. nullopt for anything else.
std::optional<std::size_t> parse_content_length(std::string_view text);

/// Serializes status line + headers (Content-Type/Length, close) + body.
std::string render_http_response(const HttpResponse& r);

/// Listens on host:port and dispatches each connection to a small worker
/// pool. `port == 0` binds an ephemeral port (read it back via port()).
class HttpServer {
 public:
  /// Binds + listens + starts accepting. Throws std::runtime_error when the
  /// socket cannot be bound.
  HttpServer(std::string host, std::uint16_t port, HttpHandler handler,
             std::size_t workers = 0);
  ~HttpServer();  ///< stop()s

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  const std::string& host() const noexcept { return host_; }
  /// The bound port (the actual one when constructed with 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Closes the listener, drains in-flight connections, joins. Idempotent.
  void stop();

 private:
  void accept_loop();
  void handle_connection(int fd);

  std::string host_;
  std::uint16_t port_ = 0;
  HttpHandler handler_;
  int listen_fd_ = -1;
  std::unique_ptr<ThreadPool> pool_;
  std::thread acceptor_;
  bool stopped_ = false;
};

}  // namespace qlec::serve
