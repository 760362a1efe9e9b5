// monomap_serve — mapping-as-a-service daemon.
//
// Serves the newline-delimited JSON protocol (src/service/protocol.hpp)
// over a Unix-domain socket, a loopback TCP socket, or stdin/stdout:
//
//   monomap_serve --unix /tmp/monomap.sock [flags]
//   monomap_serve --port 7421 [flags]
//   monomap_serve --stdio [flags]            (one client; tests, pipes)
//
// One MappingService instance backs every connection, so all clients share
// the fingerprint memo cache. Each connection has its own thread, which
// answers memo hits itself and waits on the compile pool's future for
// misses; the accept loop joins a connection's thread once it has finished.
// A `shutdown` verb (or SIGINT/SIGTERM) stops accepting, stops reading from
// the open connections, lets every request already being answered get its
// reply, and exits 0 — an idle client does not hold the daemon up. A line
// longer than kMaxRequestLineBytes is answered `bad request: ...` and ends
// its connection (or the --stdio session).
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <list>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/service.hpp"
#include "support/argparse.hpp"
#include "support/fault.hpp"

namespace {

using namespace monomap;

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

[[noreturn]] void usage() {
  std::cerr <<
      "usage: monomap_serve (--unix PATH | --port N | --stdio)\n"
      "  [--threads N]          compile pool threads (default 1)\n"
      "  [--queue-limit N]      admission bound, 0 = unbounded (default 16)\n"
      "  [--deadline S]         default per-request deadline (default 30)\n"
      "  [--no-memo]            disable the fingerprint memo cache\n"
      "  [--store-budget-mb N]  memo cache byte budget (default 64)\n"
      "  [--max-memo-entries N] memo LRU capacity (default 4096)\n"
      "  [--faults SPEC]        arm fault injection (docs/robustness.md)\n"
      "protocol: one JSON request per line, one JSON response per line\n"
      "          (docs/serving.md); verbs map / stats / shutdown\n";
  std::exit(2);
}

/// Write `response` and a newline to fd; false when the peer is gone.
bool write_line(int fd, std::string response) {
  response.push_back('\n');
  std::size_t off = 0;
  while (off < response.size()) {
    const ssize_t w = ::write(fd, response.data() + off, response.size() - off);
    if (w < 0 && errno == EINTR) continue;  // a stop signal; finish the reply
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Read '\n'-delimited lines from fd, answer each through the service.
/// Returns when the peer hangs up, its reads are shut down at exit,
/// shutdown is requested, or a line runs past kMaxRequestLineBytes
/// (answered, then dropped). The caller closes fd.
void serve_connection(MappingService* service, int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;  // the stop path shuts reads down
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      if (nl - start > kMaxRequestLineBytes) {
        (void)write_line(fd, service->reject_oversized_line());
        return;
      }
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (!write_line(fd, service->handle_line(line)) ||
          service->shutdown_requested()) {
        return;
      }
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxRequestLineBytes) {
      (void)write_line(fd, service->reject_oversized_line());
      break;
    }
  }
}

/// One client: its socket and the thread answering it. The thread never
/// closes `fd`; the accept loop does, after the join, so the shutdown(2)
/// that stops a connection at exit cannot reach a reused descriptor.
struct Connection {
  explicit Connection(int socket) : fd(socket) {}
  const int fd;
  std::atomic<bool> finished{false};
  std::thread thread;
};

/// std::getline that stops past kMaxRequestLineBytes: false at the end of
/// the input, or with *too_long set.
bool read_line(std::istream& in, std::string* line, bool* too_long) {
  line->clear();
  for (int c = in.get(); c != std::char_traits<char>::eof(); c = in.get()) {
    if (c == '\n') return true;
    if (line->size() == kMaxRequestLineBytes) {
      *too_long = true;
      return false;
    }
    line->push_back(static_cast<char>(c));
  }
  return !line->empty();
}

int serve_stdio(MappingService* service) {
  std::string line;
  bool too_long = false;
  while (!service->shutdown_requested() &&
         !g_stop.load(std::memory_order_acquire) &&
         read_line(std::cin, &line, &too_long)) {
    if (line.empty()) continue;
    std::cout << service->handle_line(line) << '\n' << std::flush;
  }
  // An over-long line ends the session, as it ends a socket connection.
  if (too_long) std::cout << service->reject_oversized_line() << '\n';
  return 0;
}

int serve_socket(MappingService* service, int listen_fd,
                 const std::string& unix_path) {
  std::list<Connection> connections;  // stable addresses for the threads
  // Join and close the connections whose threads have finished (all of
  // them when `all`, which waits for the ones still answering).
  const auto reap = [&connections](bool all) {
    for (auto it = connections.begin(); it != connections.end();) {
      if (all || it->finished.load(std::memory_order_acquire)) {
        it->thread.join();
        ::close(it->fd);
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };
  while (!service->shutdown_requested() &&
         !g_stop.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    reap(false);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    Connection& conn = connections.emplace_back(fd);
    try {
      conn.thread = std::thread([service, &conn] {
        serve_connection(service, conn.fd);
        ::shutdown(conn.fd, SHUT_RDWR);  // the peer sees the hang-up now
        conn.finished.store(true, std::memory_order_release);
      });
    } catch (const std::exception&) {
      // No thread for this client (the process is out of threads or
      // memory): drop the connection and keep serving the others.
      ::close(fd);
      connections.pop_back();
    }
  }
  ::close(listen_fd);
  // Stop reading from every open connection: an idle client's read returns
  // at once, and a request already being answered still gets its reply.
  for (const Connection& conn : connections) ::shutdown(conn.fd, SHUT_RD);
  reap(true);
  if (!unix_path.empty()) ::unlink(unix_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string unix_path;
  int port = -1;
  bool stdio = false;
  std::string faults;
  MappingService::Options options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    // Every numeric flag goes through the strict parsers: trailing junk,
    // empty strings and overflow are usage errors (exit 2), never a
    // silently-zero atoi.
    if (arg == "--unix") {
      unix_path = value();
    } else if (arg == "--port") {
      if (!argparse::parse_int(value(), &port) || port < 1 || port > 65535) {
        usage();
      }
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--threads") {
      if (!argparse::parse_int(value(), &options.threads) ||
          options.threads < 1) {
        usage();
      }
    } else if (arg == "--queue-limit") {
      if (!argparse::parse_int(value(), &options.queue_limit) ||
          options.queue_limit < 0) {
        usage();
      }
    } else if (arg == "--deadline") {
      if (!argparse::parse_double(value(), &options.default_deadline_s) ||
          options.default_deadline_s <= 0.0) {
        usage();
      }
    } else if (arg == "--no-memo") {
      options.memo = false;
    } else if (arg == "--store-budget-mb") {
      // The store counts bytes: a larger value would wrap on the shift.
      std::uint64_t mb = 0;
      if (!argparse::parse_u64(value(), &mb) || mb > (SIZE_MAX >> 20)) {
        usage();
      }
      options.store_budget_mb = static_cast<std::size_t>(mb);
    } else if (arg == "--max-memo-entries") {
      std::uint64_t n = 0;
      if (!argparse::parse_u64(value(), &n)) usage();
      options.max_memo_entries = static_cast<std::size_t>(n);
    } else if (arg == "--faults") {
      faults = value();
    } else {
      usage();
    }
  }
  const int modes =
      (unix_path.empty() ? 0 : 1) + (port > 0 ? 1 : 0) + (stdio ? 1 : 0);
  if (modes != 1) usage();

  if (!faults.empty()) {
    std::string error;
    const auto plan = fault::parse_fault_spec(faults, &error);
    if (!plan.has_value()) {
      std::cerr << "--faults: " << error << '\n';
      return 2;
    }
    fault::install_faults(*plan);
  }

  // No SA_RESTART: a read blocked on input (the --stdio loop's) returns
  // EINTR, so the loop sees g_stop instead of waiting for the next line.
  struct sigaction stop {};
  stop.sa_handler = on_signal;
  sigemptyset(&stop.sa_mask);
  ::sigaction(SIGINT, &stop, nullptr);
  ::sigaction(SIGTERM, &stop, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  MappingService service(options);
  if (stdio) {
    return serve_stdio(&service);
  }

  int listen_fd = -1;
  if (!unix_path.empty()) {
    sockaddr_un addr{};
    if (unix_path.size() >= sizeof(addr.sun_path)) {
      std::cerr << "--unix: path too long\n";
      return 2;
    }
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0) {
      std::cerr << "socket: " << std::strerror(errno) << '\n';
      return 1;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, unix_path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(unix_path.c_str());
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      std::cerr << "bind " << unix_path << ": " << std::strerror(errno)
                << '\n';
      return 1;
    }
  } else {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) {
      std::cerr << "socket: " << std::strerror(errno) << '\n';
      return 1;
    }
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      std::cerr << "bind 127.0.0.1:" << port << ": " << std::strerror(errno)
                << '\n';
      return 1;
    }
  }
  if (::listen(listen_fd, 64) != 0) {
    std::cerr << "listen: " << std::strerror(errno) << '\n';
    ::close(listen_fd);
    return 1;
  }
  std::cerr << "monomap_serve: listening on "
            << (unix_path.empty() ? ("127.0.0.1:" + std::to_string(port))
                                  : unix_path)
            << " (" << options.threads << " worker thread"
            << (options.threads == 1 ? "" : "s") << ")\n";
  return serve_socket(&service, listen_fd, unix_path);
}
