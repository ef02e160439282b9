#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace qlec::serve {
namespace {

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

bool parse_http_url(const std::string& url, std::string& host,
                    std::uint16_t& port, std::string& path) {
  const std::string scheme = "http://";
  if (url.rfind(scheme, 0) != 0) return false;
  const std::string rest = url.substr(scheme.size());
  const std::size_t slash = rest.find('/');
  const std::string authority =
      slash == std::string::npos ? rest : rest.substr(0, slash);
  path = slash == std::string::npos ? "/" : rest.substr(slash);
  const std::size_t colon = authority.find(':');
  host = colon == std::string::npos ? authority : authority.substr(0, colon);
  if (host.empty()) return false;
  if (colon == std::string::npos) {
    port = 80;
    return true;
  }
  const std::string port_text = authority.substr(colon + 1);
  char* end = nullptr;
  const unsigned long n = std::strtoul(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || n == 0 || n > 65535)
    return false;
  port = static_cast<std::uint16_t>(n);
  return true;
}

std::optional<int> parse_status_line(std::string_view line) {
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  // "HTTP/1.x NNN", then the end of the line or " <reason phrase>".
  if (line.size() < 12 || !line.starts_with("HTTP/1.") || !digit(line[7]) ||
      line[8] != ' ' || !digit(line[9]) || !digit(line[10]) ||
      !digit(line[11]) || (line.size() > 12 && line[12] != ' '))
    return std::nullopt;
  const int status =
      (line[9] - '0') * 100 + (line[10] - '0') * 10 + (line[11] - '0');
  if (status < 100 || status > 599) return std::nullopt;
  return status;
}

std::optional<ClientResponse> http_request(
    const std::string& host, std::uint16_t port, const std::string& method,
    const std::string& target, const std::string& body, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    fail(error, "socket(): failed");
    return std::nullopt;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    fail(error, "bad host " + host + " (IPv4 literal expected)");
    return std::nullopt;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    fail(error, "connect " + host + ":" + std::to_string(port) + ": " + why);
    return std::nullopt;
  }

  std::string req = method + " " + target + " HTTP/1.1\r\n";
  req += "Host: " + host + ":" + std::to_string(port) + "\r\n";
  req += "Content-Type: application/json\r\n";
  req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  req += "Connection: close\r\n\r\n";
  req += body;
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n =
        ::send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      fail(error, "send failed");
      return std::nullopt;
    }
    off += static_cast<std::size_t>(n);
  }

  // The server closes after one response, so read to EOF and split.
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      ::close(fd);
      fail(error, "recv failed");
      return std::nullopt;
    }
    if (n == 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t head_end = raw.find("\r\n\r\n");
  const std::optional<int> status =
      parse_status_line(std::string_view(raw).substr(0, raw.find("\r\n")));
  if (head_end == std::string::npos || !status) {
    fail(error, "malformed response");
    return std::nullopt;
  }
  ClientResponse resp;
  resp.status = *status;
  resp.body = raw.substr(head_end + 4);
  return resp;
}

}  // namespace qlec::serve
