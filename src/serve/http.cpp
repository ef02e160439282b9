#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "util/json.hpp"

namespace qlec::serve {
namespace {

/// Caps keep a misbehaving client from ballooning the daemon: request heads
/// are tiny, bodies are scenario files (the largest committed one is < 2 KB;
/// 16 MiB leaves room for generated grids).
constexpr std::size_t kMaxHeadBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 16 * 1024 * 1024;

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

/// recv() until `raw` contains the header terminator or the cap trips.
/// Returns the terminator position, or npos on error/overflow/EOF.
std::size_t read_head(int fd, std::string& raw) {
  char buf[4096];
  for (;;) {
    const std::size_t mark = raw.find("\r\n\r\n");
    if (mark != std::string::npos) return mark;
    if (raw.size() > kMaxHeadBytes) return std::string::npos;
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return std::string::npos;
    raw.append(buf, static_cast<std::size_t>(n));
  }
}

bool read_exact(int fd, std::string& raw, std::size_t want) {
  char buf[4096];
  while (raw.size() < want) {
    const ssize_t n = ::recv(
        fd, buf, std::min(sizeof buf, want - raw.size()), 0);
    if (n <= 0) return false;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  return true;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

const char* http_status_text(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
  }
  return "Unknown";
}

std::map<std::string, std::string> parse_query(const std::string& text) {
  std::map<std::string, std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('&', start);
    if (end == std::string::npos) end = text.size();
    const std::string pair = text.substr(start, end - start);
    if (!pair.empty()) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos)
        out[pair] = "";
      else
        out[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
    start = end + 1;
  }
  return out;
}

bool parse_http_request(const std::string& raw, HttpRequest& out,
                        std::string* error) {
  const auto fail = [&](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return fail("missing header terminator");
  const std::size_t line_end = raw.find("\r\n");
  const std::string request_line = raw.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos)
    return fail("malformed request line");
  out.method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = request_line.substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0) return fail("not HTTP/1.x");
  if (out.method.empty() || target.empty() || target[0] != '/')
    return fail("malformed request target");
  const std::size_t qmark = target.find('?');
  out.path = target.substr(0, qmark);
  out.query = qmark == std::string::npos
                  ? std::map<std::string, std::string>{}
                  : parse_query(target.substr(qmark + 1));

  std::size_t pos = line_end + 2;
  while (pos < head_end) {
    std::size_t eol = raw.find("\r\n", pos);
    if (eol == std::string::npos || eol > head_end) eol = head_end;
    const std::string line = raw.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) return fail("malformed header line");
    out.headers[lower(trim(line.substr(0, colon)))] =
        trim(line.substr(colon + 1));
    pos = eol + 2;
  }
  out.body = raw.substr(head_end + 4);
  return true;
}

std::optional<std::size_t> parse_content_length(std::string_view text) {
  std::size_t n = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return n;
}

std::string render_http_response(const HttpResponse& r) {
  std::string out = "HTTP/1.1 " + std::to_string(r.status) + " " +
                    http_status_text(r.status) + "\r\n";
  out += "Content-Type: " + r.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(r.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += r.body;
  return out;
}

HttpServer::HttpServer(std::string host, std::uint16_t port,
                       HttpHandler handler, std::size_t workers)
    : host_(std::move(host)), handler_(std::move(handler)) {
  if (workers > kMaxThreads)
    throw std::invalid_argument("HttpServer: " + std::to_string(workers) +
                                " workers exceed the cap of " +
                                std::to_string(kMaxThreads));
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket(): failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("invalid listen address " + host_);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    throw std::runtime_error("cannot listen on " + host_ + ":" +
                             std::to_string(port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  pool_ = std::make_unique<ThreadPool>(workers == 0 ? 4 : workers);
  acceptor_ = std::thread([this] { accept_loop(); });
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  // Closing the listener wakes accept(); the acceptor thread then exits and
  // the pool destructor drains any connections still being served.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  pool_.reset();
}

void HttpServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // listener closed (stop()) or fatal error
    // Bound the damage from a stalled client: a connection may hold a pool
    // worker for at most the socket timeout.
    timeval tv{};
    tv.tv_sec = 30;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    try {
      (void)pool_->submit([this, fd] { handle_connection(fd); });
    } catch (const std::exception&) {
      ::close(fd);  // pool shutting down
      return;
    }
  }
}

void HttpServer::handle_connection(int fd) {
  std::string raw;
  HttpResponse resp;
  const std::size_t head_end = read_head(fd, raw);
  if (head_end == std::string::npos) {
    ::close(fd);
    return;
  }
  HttpRequest req;
  std::string parse_error;
  bool ok = parse_http_request(raw.substr(0, head_end + 4), req,
                               &parse_error);
  std::size_t content_length = 0;
  if (ok) {
    const auto it = req.headers.find("content-length");
    if (it != req.headers.end()) {
      const std::optional<std::size_t> n = parse_content_length(it->second);
      if (!n) {
        ok = false;
        parse_error = "bad Content-Length";
      } else if (*n > kMaxBodyBytes) {
        resp.status = 413;
        resp.body = R"({"error":"request body too large"})";
        send_all(fd, render_http_response(resp));
        ::close(fd);
        return;
      } else {
        content_length = *n;
      }
    }
  }
  if (!ok) {
    resp.status = 400;
    resp.body = "{\"error\":\"" + JsonWriter::escape(parse_error) + "\"}";
    send_all(fd, render_http_response(resp));
    ::close(fd);
    return;
  }
  std::string body = raw.substr(head_end + 4);
  if (body.size() < content_length &&
      !read_exact(fd, body, content_length)) {
    ::close(fd);
    return;
  }
  req.body = body.substr(0, content_length);
  try {
    handler_(req, resp);
  } catch (const std::exception& e) {
    resp = HttpResponse{};
    resp.status = 500;
    resp.body = "{\"error\":\"" + JsonWriter::escape(e.what()) + "\"}";
  }
  send_all(fd, render_http_response(resp));
  ::close(fd);
}

}  // namespace qlec::serve
