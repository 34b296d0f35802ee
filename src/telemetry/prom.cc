#include "telemetry/prom.h"

#include <cstdio>
#include <utility>

#include "common/log.h"
#include "common/table.h"

#ifdef __linux__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace tsg {

std::string promMetricName(std::string_view name) {
  std::string out = "tsg_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void appendPromEscaped(std::string& out, std::string_view value) {
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

namespace {

void appendLabels(std::string& out, std::int32_t partition,
                  const char* quantile) {
  const bool has_partition = partition != MetricsRegistry::kNoPartition;
  if (!has_partition && quantile == nullptr) {
    return;
  }
  out += '{';
  if (has_partition) {
    out += "partition=\"";
    appendPromEscaped(out, std::to_string(partition));
    out += '"';
  }
  if (quantile != nullptr) {
    if (has_partition) {
      out += ',';
    }
    out += "quantile=\"";
    out += quantile;
    out += '"';
  }
  out += '}';
}

void appendTypeOnce(std::string& out, const std::string& mangled,
                    const char* type, std::string& last_typed) {
  if (mangled == last_typed) {
    return;  // per-partition cells of one family share the TYPE line
  }
  out += "# TYPE " + mangled + " " + type + "\n";
  last_typed = mangled;
}

}  // namespace

std::string renderPrometheus(
    const MetricsRegistry::Snapshot& points,
    const MetricsRegistry::HistogramSnapshots& histograms,
    const ProcStats* proc) {
  std::string out;
  out.reserve(4096);
  std::string last_typed;
  // Snapshots are sorted by (name, partition), so a family's cells are
  // adjacent and one TYPE line covers them.
  for (const auto& p : points) {
    const std::string mangled = promMetricName(p.name);
    appendTypeOnce(out, mangled, p.is_gauge ? "gauge" : "counter",
                   last_typed);
    out += mangled;
    appendLabels(out, p.partition, nullptr);
    out += ' ';
    out += std::to_string(p.value);
    out += '\n';
  }
  for (const auto& h : histograms) {
    const std::string mangled = promMetricName(h.name);
    appendTypeOnce(out, mangled, "summary", last_typed);
    const std::uint64_t quantiles[] = {h.quantile(0.5), h.quantile(0.9),
                                       h.quantile(0.99)};
    const char* names[] = {"0.5", "0.9", "0.99"};
    for (std::size_t q = 0; q < 3; ++q) {
      out += mangled;
      appendLabels(out, h.partition, names[q]);
      out += ' ';
      out += std::to_string(quantiles[q]);
      out += '\n';
    }
    out += mangled + "_sum";
    appendLabels(out, h.partition, nullptr);
    out += ' ' + std::to_string(h.sum) + '\n';
    out += mangled + "_count";
    appendLabels(out, h.partition, nullptr);
    out += ' ' + std::to_string(h.count) + '\n';
  }
  if (proc != nullptr && proc->valid) {
    out += "# TYPE tsg_process_rss_bytes gauge\n";
    out += "tsg_process_rss_bytes " + std::to_string(proc->rss_bytes) + "\n";
    out += "# TYPE tsg_process_cpu_ns counter\n";
    out += "tsg_process_cpu_ns " + std::to_string(proc->cpu_ns) + "\n";
    out += "# TYPE tsg_process_threads gauge\n";
    out += "tsg_process_threads " + std::to_string(proc->threads) + "\n";
  }
  return out;
}

Status writePromFile(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  if (!writeTextFile(tmp, body)) {
    return Status::ioError("cannot write prom exposition to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::ioError("cannot rename " + tmp + " over " + path);
  }
  return Status::ok();
}

#ifdef __linux__

PromHttpListener::~PromHttpListener() { stop(); }

Status PromHttpListener::start(int port, Handler handler) {
  if (running_.load(std::memory_order_acquire)) {  // tsg:mo(acquire pairs with start()'s release store)
    return Status::failedPrecondition("prom listener already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::ioError("prom listener: socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return Status::ioError("prom listener: cannot bind port " +
                           std::to_string(port) + " (" +
                           std::strerror(errno) + ")");
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::ioError("prom listener: listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = static_cast<int>(ntohs(addr.sin_port));
  }
  listen_fd_ = fd;
  handler_ = std::move(handler);
  running_.store(true, std::memory_order_release);  // tsg:mo(release publishes listener state to the accept thread)
  thread_ = std::thread([this] { acceptLoop(); });  // NOLINT(tsg-naked-thread)
  TSG_LOG(Info) << "prometheus exposition on http://127.0.0.1:" << port_
                << "/metrics";
  return Status::ok();
}

void PromHttpListener::stop() {
  if (!running_.exchange(false)) {
    return;
  }
  // Shutting the listening socket down unblocks accept() with an error,
  // which the loop reads as shutdown. The descriptor is closed and cleared
  // only after the join: the accept thread reads it until it exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) {
    thread_.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void PromHttpListener::acceptLoop() {
  while (running_.load(std::memory_order_acquire)) {  // tsg:mo(acquire pairs with start()'s release store)
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (running_.load(std::memory_order_acquire) && errno == EINTR) {  // tsg:mo(acquire pairs with start()'s release store)
        continue;
      }
      return;  // socket closed by stop()
    }
    // Drain whatever request line arrived (we answer every request the
    // same way), then write one response and close.
    char buf[1024];
    (void)::recv(client, buf, sizeof(buf), MSG_DONTWAIT);
    const std::string body = handler_ ? handler_() : std::string();
    std::string response =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) +
        "\r\n"
        "Connection: close\r\n\r\n";
    response += body;
    std::size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t n =
          ::send(client, response.data() + sent, response.size() - sent,
                 MSG_NOSIGNAL);
      if (n <= 0) {
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    ::close(client);
  }
}

#else  // !__linux__

PromHttpListener::~PromHttpListener() { stop(); }

Status PromHttpListener::start(int /*port*/, Handler /*handler*/) {
  return Status::unimplemented("prom HTTP listener requires Linux");
}

void PromHttpListener::stop() {}

void PromHttpListener::acceptLoop() {}

#endif

}  // namespace tsg
