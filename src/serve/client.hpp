// Blocking HTTP/1.1 client for talking to qlec_serve: one request per
// connection, mirroring the server's "Connection: close" framing. Used by
// qlec_submit, the perfbench serve_mix workload, and the serve tests; small
// enough to need no third-party HTTP stack.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace qlec::serve {

struct ClientResponse {
  int status = 0;
  std::string body;
};

/// "http://127.0.0.1:8423/some/path" -> host/port/path ("/" when absent).
/// Only plain http with an explicit IPv4 host is accepted (the daemon is
/// loopback-oriented); returns false otherwise.
bool parse_http_url(const std::string& url, std::string& host,
                    std::uint16_t& port, std::string& path);

/// The status code of an HTTP/1.x status line ("HTTP/1.1 200 OK"): exactly
/// three digits in [100, 599] after "HTTP/1.<digit> ", then a space or the
/// end of the line. nullopt for anything else.
std::optional<int> parse_status_line(std::string_view line);

/// One blocking request. Returns nullopt and sets `error` on transport
/// failure (connect/send/recv) or a malformed reply; HTTP-level failures
/// come back as a normal ClientResponse with its status.
std::optional<ClientResponse> http_request(
    const std::string& host, std::uint16_t port, const std::string& method,
    const std::string& target, const std::string& body = "",
    std::string* error = nullptr);

}  // namespace qlec::serve
