#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace perfbench {

const char* cache_path_name(CachePath p) {
  switch (p) {
    case CachePath::kHit: return "hit";
    case CachePath::kDisk: return "disk";
    case CachePath::kSibling: return "sibling";
    case CachePath::kMiss: return "miss";
    case CachePath::kNone: break;
  }
  return "none";
}

std::string object_target(std::uint64_t id, std::size_t size) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "/obj/%016llx?size=%zu",
                static_cast<unsigned long long>(id), size);
  return buf;
}

HttpConn::~HttpConn() { close(); }

void HttpConn::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  len_ = 0;
}

bool HttpConn::connect(std::uint16_t port, double timeout_seconds) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_seconds);
  tv.tv_usec = static_cast<suseconds_t>((timeout_seconds - double(tv.tv_sec)) * 1e6);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close();
    return false;
  }
  reserve(64 << 10);
  return true;
}

void HttpConn::reserve(std::size_t cap) {
  if (cap <= cap_) return;
  std::size_t next = cap_ ? cap_ : 4096;
  while (next < cap) next *= 2;
  auto grown = std::make_unique<char[]>(next);
  if (len_) std::memcpy(grown.get(), buf_.get(), len_);
  buf_ = std::move(grown);
  cap_ = next;
}

bool HttpConn::fill(std::size_t want) {
  reserve(want);
  while (len_ < want) {
    const ssize_t n = ::recv(fd_, buf_.get() + len_, cap_ - len_, 0);
    if (n > 0) {
      len_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF, timeout or error
  }
  return true;
}

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    char x = a[i], y = b[i];
    if (x >= 'A' && x <= 'Z') x = static_cast<char>(x - 'A' + 'a');
    if (y >= 'A' && y <= 'Z') y = static_cast<char>(y - 'A' + 'a');
    if (x != y) return false;
  }
  return true;
}

bool parse_size(std::string_view s, std::size_t& out) {
  if (s.empty()) return false;
  std::size_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::size_t>(c - '0');
  }
  out = v;
  return true;
}

}  // namespace

bool HttpConn::get(std::string_view target, bool no_forward, Response& out) {
  if (fd_ < 0) return false;
  request_.assign("GET ");
  request_.append(target);
  request_.append(" HTTP/1.0\r\nConnection: keep-alive\r\n");
  if (no_forward) request_.append("X-No-Forward: 1\r\n");
  request_.append("\r\n");
  std::size_t sent = 0;
  while (sent < request_.size()) {
    const ssize_t n = ::send(fd_, request_.data() + sent,
                             request_.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      close();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }

  // Read until the end of the head.
  std::size_t head_end = 0;
  std::size_t scanned = 0;
  for (;;) {
    const std::string_view have(buf_.get(), len_);
    const std::size_t pos = have.find("\r\n\r\n", scanned > 3 ? scanned - 3 : 0);
    if (pos != std::string_view::npos) {
      head_end = pos + 4;
      break;
    }
    scanned = len_;
    if (len_ > (64 << 10) || !fill(len_ + 1)) {
      close();
      return false;
    }
  }

  const std::string_view head(buf_.get(), head_end);
  // Status line: "HTTP/1.x SSS reason".
  if (head.size() < 12 || head.substr(0, 5) != "HTTP/") {
    close();
    return false;
  }
  out.status = (head[9] - '0') * 100 + (head[10] - '0') * 10 + (head[11] - '0');
  out.path = CachePath::kNone;
  std::size_t content_length = 0;
  bool has_length = false, keep_alive = false;
  std::size_t line = head.find("\r\n") + 2;
  while (line < head_end - 2) {
    const std::size_t eol = head.find("\r\n", line);
    const std::string_view h = head.substr(line, eol - line);
    line = eol + 2;
    const std::size_t colon = h.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view key = h.substr(0, colon);
    std::string_view value = h.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    if (iequals(key, "Content-Length")) {
      has_length = parse_size(value, content_length);
    } else if (iequals(key, "X-Cache")) {
      if (value == "HIT") out.path = CachePath::kHit;
      else if (value == "DISK") out.path = CachePath::kDisk;
      else if (value == "SIBLING") out.path = CachePath::kSibling;
      else if (value == "MISS") out.path = CachePath::kMiss;
    } else if (iequals(key, "Connection")) {
      keep_alive = iequals(value, "keep-alive");
    }
  }
  if (!has_length || !fill(head_end + content_length)) {
    close();
    return false;
  }
  // The body view stays valid until the next call: move it to the front of
  // the buffer only when the next request needs the space.
  out.body = std::string_view(buf_.get() + head_end, content_length);
  const std::size_t used = head_end + content_length;
  if (len_ != used) {
    close();  // unsolicited bytes: one request is outstanding at a time
    return false;
  }
  len_ = 0;
  if (!keep_alive) {
    // The view must outlive close(): keep the buffer, drop only the socket.
    ::close(fd_);
    fd_ = -1;
  }
  return true;
}

bool http_get_once(std::uint16_t port, std::string_view target, int& status,
                   std::string& body) {
  HttpConn conn;
  if (!conn.connect(port)) return false;
  Response r;
  if (!conn.get(target, false, r)) return false;
  status = r.status;
  body.assign(r.body);
  return true;
}

}  // namespace perfbench
