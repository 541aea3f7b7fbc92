#include "runtime/stats_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/error.hpp"

namespace ss::runtime {

StatsServer::StatsServer(int port, std::function<MetricsSample()> sampler,
                         std::vector<std::string> op_names)
    : port_(port), sampler_(std::move(sampler)), op_names_(std::move(op_names)) {
  if (port <= 0 || port > 65535) {
    throw Error("--stats-port out of range (1-65535): " + std::to_string(port));
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  require(listen_fd_ >= 0, "stats server: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("stats server: cannot bind 127.0.0.1:" + std::to_string(port) + " (" +
                std::strerror(err) + ")");
  }
  if (::listen(listen_fd_, 8) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("stats server: listen() failed on port " + std::to_string(port));
  }
}

StatsServer::~StatsServer() { stop(); }

void StatsServer::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { loop(); });
}

void StatsServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void StatsServer::loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 100);  // 100 ms: bounded stop latency
    if (ready <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    serve(client);
    ::close(client);
  }
}

void StatsServer::serve(int client_fd) {
  // Read one request head (we only need the request line; this endpoint
  // serves GETs from curl/Prometheus, not pipelined clients).
  char buf[2048];
  const auto n = ::recv(client_fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return;
  buf[n] = '\0';
  std::string head(buf);
  const auto line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  std::istringstream parse(request_line);
  std::string method;
  std::string path;
  parse >> method >> path;

  std::string body;
  std::string content_type = "application/json";
  int status = 200;
  const char* reason = "OK";
  if (method != "GET") {
    status = 405;
    reason = "Method Not Allowed";
    body = "{\"error\":\"method not allowed\"}\n";
  } else if (path == "/metrics") {
    content_type = "text/plain; version=0.0.4";
    body = render_prometheus(sampler_(), op_names_);
  } else if (path == "/" || path == "/stats.json") {
    body = render_json(sampler_(), op_names_);
  } else {
    status = 404;
    reason = "Not Found";
    body = "{\"error\":\"unknown path; try /metrics or /stats.json\"}\n";
  }

  std::ostringstream resp;
  resp << "HTTP/1.0 " << status << " " << reason << "\r\n"
       << "Content-Type: " << content_type << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << body;
  const std::string out = resp.str();
  std::size_t sent = 0;
  while (sent < out.size()) {
    const auto w = ::send(client_fd, out.data() + sent, out.size() - sent, 0);
    if (w <= 0) break;
    sent += static_cast<std::size_t>(w);
  }
}

}  // namespace ss::runtime
