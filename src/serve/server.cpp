#include "src/serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace vosim {

namespace {

/// Splits a comma list ("fir,dot") into its non-empty tokens.
std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(csv);
  while (std::getline(is, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// Writes the whole buffer, riding out short writes. Returns false on
/// a broken connection (the client went away mid-stream) or once
/// kResponseWriteDeadline passes with no byte taken (the peer stopped
/// reading). MSG_NOSIGNAL turns the SIGPIPE a disconnected peer would
/// raise into an EPIPE return, so a vanishing client never kills the
/// daemon.
bool write_all(int fd, const std::string& data) {
  auto deadline = std::chrono::steady_clock::now() + kResponseWriteDeadline;
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      deadline = std::chrono::steady_clock::now() + kResponseWriteDeadline;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) return false;
    // The socket buffer is full. POLLOUT fires only once the reader has
    // drained most of it, so also retry every 100 ms: any room the
    // reader frees counts as progress.
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, POLLOUT, 0};
    ::poll(&pfd, 1,
           static_cast<int>(std::min<std::int64_t>(left.count(), 100)));
  }
  return true;
}

bool write_line(int fd, const std::string& line) {
  return write_all(fd, line + "\n");
}

/// A campaign stream goes out in writes of at least this many bytes
/// (the last one carries the footer), not one send() per cell line.
constexpr std::size_t kStreamChunkBytes = 64 * 1024;

/// Reads until the first newline or EOF (the request is one line; any
/// bytes after it are dropped). The whole line must arrive within
/// kRequestReadDeadline: an idle or trickling client gets nullopt.
std::optional<std::string> read_request_line(int fd) {
  const auto deadline =
      std::chrono::steady_clock::now() + kRequestReadDeadline;
  std::string line;
  char buf[4096];
  // A sane request is a few hundred bytes.
  while (line.size() <= 1 << 16) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return std::nullopt;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) return std::nullopt;
    const ssize_t n = ready < 0 ? -1 : ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    char* const nl = std::find(buf, buf + n, '\n');
    line.append(buf, nl);
    if (nl != buf + n) break;
  }
  return line;
}

/// The campaign request body -> CampaignConfig. Absent fields keep
/// the campaign defaults; `default_jobs` is the daemon-wide cap.
CampaignConfig parse_campaign_request(const std::string& line,
                                      unsigned default_jobs) {
  CampaignConfig cfg;
  cfg.jobs = default_jobs;
  std::string raw;
  if (jsonl::raw_field(line, "workloads", raw))
    cfg.workloads = split_list(raw);
  if (jsonl::raw_field(line, "circuits", raw))
    cfg.circuits = split_list(raw);
  if (jsonl::raw_field(line, "backends", raw)) {
    cfg.backends.clear();
    for (const std::string& name : split_list(raw))
      cfg.backends.push_back(parse_arith_backend(name));
  }
  std::uint64_t u = 0;
  if (jsonl::u64_field(line, "seed", u)) cfg.seed = u;
  if (jsonl::u64_field(line, "patterns", u))
    cfg.characterize_patterns = u;
  if (jsonl::u64_field(line, "train_patterns", u)) cfg.train_patterns = u;
  if (jsonl::u64_field(line, "max_triads", u)) cfg.max_triads = u;
  if (jsonl::u64_field(line, "jobs", u))
    cfg.jobs = static_cast<unsigned>(u);
  if (jsonl::u64_field(line, "chips", u)) cfg.fleet.num_chips = u;
  if (jsonl::u64_field(line, "fleet_seed", u)) cfg.fleet.seed = u;
  double d = 0.0;
  if (jsonl::num_field(line, "speed_sigma", d))
    cfg.fleet.speed_sigma = d;
  if (jsonl::num_field(line, "leakage_sigma", d))
    cfg.fleet.leakage_sigma = d;
  if (jsonl::u64_field(line, "provenance", u)) cfg.provenance = u != 0;
  if (jsonl::u64_field(line, "top_culprits", u)) cfg.top_culprits = u;
  return cfg;
}

/// Decrements a gauge on scope exit (watcher lifetime accounting).
struct GaugeGuard {
  obs::Gauge& g;
  ~GaugeGuard() { g.add(-1.0); }
};

}  // namespace

CampaignServer::CampaignServer(const CellLibrary& lib, ServeConfig config)
    : lib_(lib),
      config_(std::move(config)),
      store_(config_.store_path) {
  manifest_.tool = "serve";
  manifest_.engine = "levelized";
  manifest_.config = "socket=" + config_.socket_path +
                     "|store=" + config_.store_path +
                     "|jobs=" + std::to_string(config_.jobs);
  // Stamp the warm store with this daemon's manifest (no-op for
  // in-memory stores or stores that already carry one).
  if (!config_.store_path.empty())
    store_.write_header(manifest_.to_jsonl());
}

CampaignServer::~CampaignServer() { stop(); }

void CampaignServer::start() {
  sockaddr_un addr{};
  if (config_.socket_path.empty() ||
      config_.socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("serve: bad socket path '" +
                             config_.socket_path + "'");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("serve: socket() failed");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);
  ::unlink(config_.socket_path.c_str());  // a stale socket from a crash
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot bind " + config_.socket_path);
  }
  running_.store(true);
  started_ = std::chrono::steady_clock::now();
  acceptor_ = std::thread([this] { accept_loop(); });
}

void CampaignServer::accept_loop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) break;
      continue;  // EINTR and friends
    }
    reap_finished();
    {
      std::lock_guard<std::mutex> lock(conn_m_);
      if (connections_.size() < kMaxConnections) {
        connections_.emplace_back([this, fd] { handle_connection(fd); });
        continue;
      }
    }
    // Past the cap: one refusal line, sent without waiting on the
    // client, then close.
    const std::string busy = "{\"error\":\"busy\",\"max_connections\":" +
                             std::to_string(kMaxConnections) + "}\n";
    ::send(fd, busy.data(), busy.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    ::close(fd);
    obs::metrics().counter("serve.errors").add();
  }
}

void CampaignServer::reap_finished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conn_m_);
    for (const std::thread::id id : finished_) {
      const auto it = std::find_if(
          connections_.begin(), connections_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      if (it == connections_.end()) continue;
      done.push_back(std::move(*it));
      connections_.erase(it);
    }
    finished_.clear();
  }
  // Each of these has left handle_connection; join waits out only its
  // return.
  for (std::thread& t : done) t.join();
}

void CampaignServer::handle_connection(int fd) {
  auto& reg = obs::metrics();
  reg.gauge("serve.connections.active").add(1.0);
  reg.counter("serve.requests").add();
  std::uint64_t bytes = 0;
  bool alive = true;
  {
    obs::ScopedTimer timer(reg.histogram("serve.request.seconds"));
    alive = dispatch(fd, bytes);
  }
  reg.counter("serve.bytes.streamed").add(bytes);
  if (!alive) reg.counter("serve.disconnects").add();
  reg.gauge("serve.connections.active").add(-1.0);
  ::close(fd);
  // Last step: the accept loop may join this thread from here on.
  std::lock_guard<std::mutex> lock(conn_m_);
  finished_.push_back(std::this_thread::get_id());
}

bool CampaignServer::dispatch(int fd, std::uint64_t& bytes) {
  // Successful lines count toward serve.bytes.streamed (+1: newline).
  const auto send_line = [fd, &bytes](const std::string& line) {
    if (!write_line(fd, line)) return false;
    bytes += line.size() + 1;
    return true;
  };
  const std::optional<std::string> request = read_request_line(fd);
  if (!request) {
    obs::metrics().counter("serve.errors").add();
    return send_line("{\"error\":\"request timeout\",\"deadline_s\":" +
                     std::to_string(kRequestReadDeadline.count()) + "}");
  }
  const std::string& line = *request;
  std::string cmd;
  if (!jsonl::raw_field(line, "cmd", cmd)) {
    obs::metrics().counter("serve.errors").add();
    return send_line("{\"error\":\"missing cmd\"}");
  }
  requests_.fetch_add(1);
  obs::ScopedSpan span("serve.request", "serve");
  span.arg("cmd", cmd);
  if (cmd == "ping") {
    return send_line("{\"ok\":true,\"cmd\":\"ping\"}");
  }
  if (cmd == "shutdown") {
    const bool ok = send_line("{\"ok\":true,\"cmd\":\"shutdown\"}");
    shutdown_requested_.store(true);
    wait_cv_.notify_all();
    // Wake watchers so open `watch` streams drain their footer and
    // close; the empty critical section orders the store above against
    // a watcher's predicate check (no lost wakeup).
    { std::lock_guard<std::mutex> lock(watch_m_); }
    watch_cv_.notify_all();
    return ok;
  }
  if (cmd == "stats") {
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count();
    // One snapshot serves both the metrics blob and the provenance
    // census, so the two never disagree within a line.
    const obs::MetricsSnapshot snap = obs::metrics().snapshot();
    std::size_t provenance_counters = 0;
    for (const auto& [name, value] : snap.counters)
      if (name.rfind("provenance.", 0) == 0) ++provenance_counters;
    std::ostringstream out;
    out << "{\"ok\":true,\"cmd\":\"stats\",\"uptime_s\":"
        << jsonl::num(uptime)
        << ",\"requests_served\":" << requests_.load()
        << ",\"active_connections\":"
        << static_cast<std::int64_t>(
               obs::metrics().gauge("serve.connections.active").value())
        << ",\"watchers\":"
        << static_cast<std::int64_t>(
               obs::metrics().gauge("serve.watchers.active").value())
        << ",\"watch_events\":" << watch_events_.load()
        << ",\"store_cells\":" << store_.size()
        << ",\"provenance_counters\":" << provenance_counters
        << ",\"manifest\":" << manifest_.to_jsonl()
        << ",\"metrics\":" << snap.to_json() << "}";
    return send_line(out.str());
  }
  if (cmd == "watch") {
    std::uint64_t limit = 0;  // 0 = follow until shutdown
    jsonl::u64_field(line, "limit", limit);
    return serve_watch(fd, limit, bytes);
  }
  if (cmd == "campaign") {
    try {
      CampaignConfig cfg = parse_campaign_request(line, config_.jobs);
      // Every computed cell fans out to the watch log as it finishes,
      // so `watch` clients follow any in-flight campaign live.
      cfg.on_cell = [this](const CampaignCell& cell) {
        publish_event(CampaignStore::to_jsonl(cell));
      };
      CampaignOutcome outcome =
          run_campaign(lib_, cfg, store_, prepared_);
      // Stream the *stored* form of each cell, not the in-memory
      // post-rebase view: stored lines carry the shard-independent
      // baseline, so a served stream is byte-comparable (modulo
      // elapsed_s) with any offline store of the same grid. The
      // outcome keeps each cell's stored baseline, so no cell is looked
      // up again. Lines collect in one buffer that goes out in
      // kStreamChunkBytes writes; a failed write ends the stream.
      std::string out;
      out.reserve(kStreamChunkBytes + 1024);
      const auto flush = [fd, &bytes, &out] {
        if (!write_all(fd, out)) return false;
        bytes += out.size();
        out.clear();
        return true;
      };
      for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
        CampaignCell& cell = outcome.cells[i];
        cell.baseline_fj = outcome.stored_baseline_fj[i];
        out += CampaignStore::to_jsonl(cell);
        out += '\n';
        if (out.size() >= kStreamChunkBytes && !flush())
          return false;  // client went away mid-stream
      }
      std::ostringstream footer;
      footer << "{\"done\":true,\"cells\":" << outcome.cells.size()
             << ",\"reused\":" << outcome.reused
             << ",\"computed\":" << outcome.computed << "}\n";
      out += footer.str();
      return flush();
    } catch (const std::exception& e) {
      obs::metrics().counter("serve.errors").add();
      return send_line(std::string("{\"error\":\"") + e.what() + "\"}");
    }
  }
  // Unknown verbs get a structured, self-diagnosing error line (verb
  // echoed back plus the supported set) instead of a bare message.
  obs::metrics().counter("serve.errors").add();
  return send_line(
      "{\"error\":\"unknown cmd\",\"cmd\":\"" + cmd +
      "\",\"known\":[\"campaign\",\"ping\",\"shutdown\",\"stats\","
      "\"watch\"]}");
}

void CampaignServer::publish_event(const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(watch_m_);
    watch_log_.push_back(line);
    if (watch_log_.size() > kWatchLogCap) {
      // O(cap) front eviction on a ≤1024-string vector is noise next
      // to the simulation work that produced the event.
      watch_log_.erase(watch_log_.begin());
      ++watch_base_;
    }
    watch_events_.fetch_add(1);
  }
  watch_cv_.notify_all();
  obs::metrics().counter("serve.watch.events_published").add();
}

bool CampaignServer::serve_watch(int fd, std::uint64_t limit,
                                 std::uint64_t& bytes) {
  auto& reg = obs::metrics();
  reg.counter("serve.watch.requests").add();
  reg.gauge("serve.watchers.active").add(1.0);
  GaugeGuard guard{reg.gauge("serve.watchers.active")};
  const auto send_line = [fd, &bytes](const std::string& l) {
    if (!write_line(fd, l)) return false;
    bytes += l.size() + 1;
    return true;
  };
  std::uint64_t cursor = 0;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(watch_m_);
    cursor = watch_base_;   // start with the retained backlog
    dropped = watch_base_;  // evictions that predate this watcher
  }
  if (!send_line("{\"ok\":true,\"cmd\":\"watch\"}")) return false;
  std::uint64_t sent = 0;
  bool stopping = false;
  while (!stopping && (limit == 0 || sent < limit)) {
    std::vector<std::string> batch;
    {
      std::unique_lock<std::mutex> lock(watch_m_);
      // The timeout is a belt-and-braces net; publish_event, shutdown
      // and stop() all notify under/after taking watch_m_.
      watch_cv_.wait_for(lock, std::chrono::milliseconds(250), [&] {
        return !running_.load() || shutdown_requested_.load() ||
               watch_base_ + watch_log_.size() > cursor;
      });
      if (cursor < watch_base_) cursor = watch_base_;  // fell behind
      while (cursor < watch_base_ + watch_log_.size() &&
             (limit == 0 || sent + batch.size() < limit)) {
        batch.push_back(watch_log_[cursor - watch_base_]);
        ++cursor;
      }
      stopping = batch.empty() &&
                 (!running_.load() || shutdown_requested_.load());
    }
    for (const std::string& l : batch) {
      if (!send_line(l)) return false;  // watcher went away
      ++sent;
    }
  }
  reg.counter("serve.watch.events_streamed").add(sent);
  std::ostringstream footer;
  footer << "{\"done\":true,\"cmd\":\"watch\",\"events\":" << sent
         << ",\"dropped\":" << dropped << "}";
  return send_line(footer.str());
}

void CampaignServer::wait() {
  std::unique_lock<std::mutex> lock(wait_m_);
  wait_cv_.wait(lock, [this] { return shutdown_requested_.load(); });
}

void CampaignServer::stop() {
  if (!running_.exchange(false)) return;
  // Wake blocked watchers before joining their connection threads
  // (same lost-wakeup fence as the shutdown verb).
  { std::lock_guard<std::mutex> lock(watch_m_); }
  watch_cv_.notify_all();
  // Unblock accept(): shut the listener down before joining.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conn_m_);
    conns.swap(connections_);
  }
  for (std::thread& t : conns)
    if (t.joinable()) t.join();
  {
    // Every thread is joined, so no id arrives after this.
    std::lock_guard<std::mutex> lock(conn_m_);
    finished_.clear();
  }
  listen_fd_ = -1;
  ::unlink(config_.socket_path.c_str());
  shutdown_requested_.store(true);  // release any wait()er
  wait_cv_.notify_all();
}

std::vector<std::string> send_request(const std::string& socket_path,
                                      const std::string& request) {
  sockaddr_un addr{};
  if (socket_path.empty() ||
      socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("request: bad socket path '" + socket_path +
                             "'");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("request: socket() failed");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(),
              socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("request: cannot connect to " + socket_path);
  }
  if (!write_line(fd, request)) {
    ::close(fd);
    throw std::runtime_error("request: send failed");
  }
  std::vector<std::string> lines;
  std::string current;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] == '\n') {
        lines.push_back(current);
        current.clear();
      } else {
        current.push_back(buf[i]);
      }
    }
  }
  if (!current.empty()) lines.push_back(current);
  ::close(fd);
  return lines;
}

}  // namespace vosim
