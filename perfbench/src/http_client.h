// The load generator's own HTTP/1.0 keep-alive client over plain blocking
// sockets. It shares no code with the program's HTTP parser or connection
// pool, so a change there cannot change the side that measures.
//
// One request is outstanding per connection. The response head is parsed
// for the status, Content-Length and X-Cache; the body is read into a
// reusable buffer and handed back as a view valid until the next call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace perfbench {

enum class CachePath : std::uint8_t { kNone, kHit, kDisk, kSibling, kMiss };

const char* cache_path_name(CachePath p);

struct Response {
  int status = 0;
  CachePath path = CachePath::kNone;
  std::string_view body;
};

class HttpConn {
 public:
  HttpConn() = default;
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  // Connects to 127.0.0.1:port with TCP_NODELAY and a receive/send timeout.
  bool connect(std::uint16_t port, double timeout_seconds = 10.0);
  void close();
  bool is_open() const { return fd_ >= 0; }

  // Sends one GET (with "X-No-Forward: 1" when `no_forward`) and reads the
  // whole response. False on any transport or framing error; the
  // connection is closed then.
  bool get(std::string_view target, bool no_forward, Response& out);

 private:
  bool fill(std::size_t want);  // reads until at least `want` bytes buffered
  void reserve(std::size_t cap);

  int fd_ = -1;
  std::unique_ptr<char[]> buf_;
  std::size_t cap_ = 0;
  std::size_t len_ = 0;
  std::string request_;
};

// Formats the origin's object path: /obj/<16 hex digits>?size=<n>.
std::string object_target(std::uint64_t id, std::size_t size);

// One GET on a fresh connection; for scrapes and one-off probes.
bool http_get_once(std::uint16_t port, std::string_view target, int& status,
                   std::string& body);

}  // namespace perfbench
