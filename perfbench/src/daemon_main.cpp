// The daemon side of children.h: one origin or proxy per process, driven by
// one command per stdin line, one reply line per command on stdout.
//
//   origin:  "modify <id>"   -> modify(), then "ok <new version>"
//            "served"        -> "<requests served>"
//   proxy:   "neighbor <p>"  -> add_hint_neighbor(p), then "ok"
//            "flush"         -> flush_hints(), then "ok"
//   both:    "stop" or end of input -> stop(), exit 0
//
// The first line is "READY <port> <io backend>". The process asks the
// kernel to kill it when its parent dies, so an aborted run leaves nothing.
#include <sys/prctl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "proxy/origin_server.h"
#include "proxy/proxy_server.h"

namespace perfbench {

namespace {

std::string option(const std::vector<std::string>& args, const std::string& key,
                   const std::string& fallback = "") {
  const std::string prefix = "--" + key + "=";
  for (const std::string& a : args) {
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
  }
  return fallback;
}

bool flag(const std::vector<std::string>& args, const std::string& key) {
  for (const std::string& a : args) {
    if (a == "--" + key) return true;
  }
  return false;
}

void reply(const std::string& line) {
  std::fputs((line + "\n").c_str(), stdout);
  std::fflush(stdout);
}

int run_origin() {
  bh::proxy::OriginServer origin;
  reply("READY " + std::to_string(origin.port()) + " -");
  std::string line;
  while (std::getline(std::cin, line) && line != "stop") {
    if (line.rfind("modify ", 0) == 0) {
      const bh::ObjectId id{std::strtoull(line.c_str() + 7, nullptr, 10)};
      origin.modify(id);
      reply("ok " + std::to_string(origin.version_of(id)));
    } else if (line == "served") {
      reply(std::to_string(origin.requests_served()));
    } else {
      reply("error unknown command");
    }
  }
  origin.stop();
  return 0;
}

int run_proxy(const std::vector<std::string>& args) {
  bh::proxy::ProxyConfig cfg;
  cfg.name = option(args, "name", "proxy");
  cfg.origin_port =
      static_cast<std::uint16_t>(std::stoul(option(args, "origin-port", "0")));
  if (const std::string c = option(args, "capacity"); !c.empty()) {
    cfg.capacity_bytes = std::stoull(c);
  }
  cfg.disk_path = option(args, "disk");
  if (flag(args, "no-fsync")) cfg.disk_fsync = false;
  cfg.register_with_origin = flag(args, "register");
  if (const std::string f = option(args, "flush-interval"); !f.empty()) {
    cfg.flush_interval_seconds = std::stod(f);
  }
  bh::proxy::ProxyServer proxy(cfg);
  reply("READY " + std::to_string(proxy.port()) + " " + proxy.backend_name());
  std::string line;
  while (std::getline(std::cin, line) && line != "stop") {
    if (line.rfind("neighbor ", 0) == 0) {
      proxy.add_hint_neighbor(
          static_cast<std::uint16_t>(std::stoul(line.substr(9))));
      reply("ok");
    } else if (line == "flush") {
      proxy.flush_hints();
      reply("ok");
    } else {
      reply("error unknown command");
    }
  }
  proxy.stop();
  return 0;
}

}  // namespace

int daemon_main(const std::vector<std::string>& args) {
  const std::string parent = option(args, "parent");
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (parent.empty() || std::to_string(::getppid()) != parent) return 3;
  try {
    if (flag(args, "origin")) return run_origin();
    if (flag(args, "proxy")) return run_proxy(args);
    reply("ERROR no role given");
  } catch (const std::exception& e) {
    reply(std::string("ERROR ") + e.what());
  }
  return 2;
}

}  // namespace perfbench
