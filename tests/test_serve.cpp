// Sweep-daemon tests: in-process CampaignServer on a Unix socket,
// concurrent campaign requests, equivalence of the streamed cells with
// an offline run of the same grid, prepared circuits reused across
// requests, the connection cap, streams longer than one send
// buffer, malformed-request and mid-stream disconnect survival,
// joining finished connection threads, the request read and response
// write deadlines that keep idle and stalled clients from holding
// stop(), a slow reader that is served in full without holding up
// other clients, and the stats introspection verb.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/campaign/runner.hpp"
#include "src/campaign/store.hpp"
#include "src/obs/metrics.hpp"
#include "src/serve/server.hpp"
#include "src/tech/library.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

/// Short socket path: sockaddr_un caps at ~100 chars and TempDir can
/// be long, so sockets live under /tmp with the test pid mixed in.
std::string socket_path(const std::string& tag) {
  return "/tmp/vosim_test_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// Opens a raw client connection (for clients that misbehave).
int connect_client(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// 1 024 exact cells (fir and dot x 4 triads x 128 chips): a stream of
/// ~370 KB, several of the daemon's 64 KiB send buffers.
const std::string kLongGrid =
    "{\"cmd\":\"campaign\",\"workloads\":\"fir,dot\",\"circuits\":"
    "\"rca16\",\"backends\":\"exact\",\"max_triads\":4,"
    "\"patterns\":300,\"chips\":128}";

CampaignConfig long_grid() {
  CampaignConfig cfg;
  cfg.workloads = {"fir", "dot"};
  cfg.circuits = {"rca16"};
  cfg.backends = {ArithBackend::kExact};
  cfg.max_triads = 4;
  cfg.characterize_patterns = 300;
  cfg.fleet.num_chips = 128;
  return cfg;
}

/// This process's mapped address space (VmSize) in MB.
double vm_size_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmSize:", 0) == 0)
      return std::stod(line.substr(7)) / 1024.0;  // kB
  return 0.0;
}

TEST(CampaignServer, PingAndShutdownRoundTrip) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("ping");
  CampaignServer server(lib(), cfg);
  server.start();
  EXPECT_TRUE(server.running());

  const auto pong = send_request(cfg.socket_path, "{\"cmd\":\"ping\"}");
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_EQ(pong[0], "{\"ok\":true,\"cmd\":\"ping\"}");

  const auto bad = send_request(cfg.socket_path, "{\"cmd\":\"nope\"}");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_NE(bad[0].find("\"error\""), std::string::npos);

  const auto ack =
      send_request(cfg.socket_path, "{\"cmd\":\"shutdown\"}");
  ASSERT_EQ(ack.size(), 1u);
  EXPECT_EQ(ack[0], "{\"ok\":true,\"cmd\":\"shutdown\"}");
  server.wait();  // returns because shutdown was served
  server.stop();
  EXPECT_EQ(server.requests_served(), 3u);
}

TEST(CampaignServer, ConcurrentRequestsMatchOfflineExecution) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("campaign");
  CampaignServer server(lib(), cfg);
  server.start();

  const std::string req1 =
      "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":2,"
      "\"patterns\":300,\"train_patterns\":800,\"chips\":2}";
  const std::string req2 =
      "{\"cmd\":\"campaign\",\"workloads\":\"dot\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":2,"
      "\"patterns\":300,\"train_patterns\":800,\"chips\":2}";

  std::vector<std::string> r1, r2;
  std::thread t1(
      [&] { r1 = send_request(cfg.socket_path, req1); });
  std::thread t2(
      [&] { r2 = send_request(cfg.socket_path, req2); });
  t1.join();
  t2.join();
  server.stop();

  // Each stream: 2 triads x 2 chips = 4 cells plus the done footer.
  ASSERT_EQ(r1.size(), 5u);
  ASSERT_EQ(r2.size(), 5u);
  EXPECT_NE(r1.back().find("\"done\":true,\"cells\":4"),
            std::string::npos);
  EXPECT_NE(r2.back().find("\"done\":true,\"cells\":4"),
            std::string::npos);

  // Offline reference: the same grids through run_campaign. The
  // daemon streams the stored cell form, so everything but the
  // wall-clock elapsed_s must match byte-for-byte.
  CampaignConfig offline;
  offline.circuits = {"rca16"};
  offline.backends = {ArithBackend::kModel};
  offline.max_triads = 2;
  offline.characterize_patterns = 300;
  offline.train_patterns = 800;
  offline.fleet.num_chips = 2;
  const auto strip = [](const std::string& line) {
    return line.substr(0, line.find("\"elapsed_s\""));
  };
  const std::vector<std::string>* streams[] = {&r1, &r2};
  const char* workloads[] = {"fir", "dot"};
  for (int i = 0; i < 2; ++i) {
    offline.workloads = {workloads[i]};
    CampaignStore store;
    const CampaignOutcome outcome = run_campaign(lib(), offline, store);
    ASSERT_EQ(outcome.cells.size(), 4u);
    for (std::size_t c = 0; c < outcome.cells.size(); ++c) {
      const auto stored = store.find(outcome.cells[c].key);
      ASSERT_TRUE(stored.has_value());
      EXPECT_EQ(strip((*streams[i])[c]),
                strip(CampaignStore::to_jsonl(*stored)))
          << workloads[i] << " cell " << c;
    }
  }
}

TEST(CampaignServer, RequestsReusePreparedCircuits) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("prepared");
  CampaignServer server(lib(), cfg);
  server.start();
  auto& reg = obs::metrics();
  obs::Counter& characterized = reg.counter("campaign.characterize.calls");
  obs::Counter& trained = reg.counter("campaign.train.calls");
  obs::Counter& reused = reg.counter("campaign.prepared.reused");

  // A prepares rca16's 2-triad list and trains both triads' models.
  const auto a = send_request(
      cfg.socket_path,
      "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":2,"
      "\"patterns\":300,\"train_patterns\":800,\"seed\":1}");
  ASSERT_EQ(a.size(), 3u);

  // B misses every cell (new seed, new workload, chips), yet its
  // circuit, triads and budgets are A's: no sweep, no training.
  const std::uint64_t char0 = characterized.value();
  const std::uint64_t train0 = trained.value();
  const std::uint64_t reused0 = reused.value();
  const auto b = send_request(
      cfg.socket_path,
      "{\"cmd\":\"campaign\",\"workloads\":\"fir,dot\",\"circuits\":"
      "\"rca16\",\"backends\":\"exact,model\",\"max_triads\":2,"
      "\"patterns\":300,\"train_patterns\":800,\"seed\":2,\"chips\":2}");
  EXPECT_EQ(characterized.value(), char0);
  EXPECT_EQ(trained.value(), train0);
  EXPECT_EQ(reused.value() - reused0, 1u);
  // 2 workloads x 2 triads x 2 backends x 2 chips, then the footer.
  ASSERT_EQ(b.size(), 17u);
  EXPECT_EQ(b.back(),
            "{\"done\":true,\"cells\":16,\"reused\":0,\"computed\":16}");

  // C changes the characterization budget: a new entry, swept once.
  const auto c = send_request(
      cfg.socket_path,
      "{\"cmd\":\"campaign\",\"workloads\":\"fir,dot\",\"circuits\":"
      "\"rca16\",\"backends\":\"exact,model\",\"max_triads\":2,"
      "\"patterns\":400,\"train_patterns\":800,\"seed\":2,\"chips\":2}");
  EXPECT_EQ(characterized.value() - char0, 1u);
  ASSERT_EQ(c.size(), 17u);
  server.stop();

  // B's stream is the stored lines of the same grid run offline.
  CampaignConfig offline;
  offline.workloads = {"fir", "dot"};
  offline.circuits = {"rca16"};
  offline.backends = {ArithBackend::kExact, ArithBackend::kModel};
  offline.max_triads = 2;
  offline.characterize_patterns = 300;
  offline.train_patterns = 800;
  offline.seed = 2;
  offline.fleet.num_chips = 2;
  CampaignStore store;
  const CampaignOutcome outcome = run_campaign(lib(), offline, store);
  ASSERT_EQ(outcome.cells.size(), 16u);
  const auto strip = [](const std::string& line) {
    return line.substr(0, line.find("\"elapsed_s\""));
  };
  for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
    const auto stored = store.find(outcome.cells[i].key);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(strip(b[i]), strip(CampaignStore::to_jsonl(*stored)))
        << "cell " << i;
  }
}

TEST(CampaignServer, ConnectionsPastTheCapAreRefusedBusy) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("cap");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::uint64_t errors0 =
      obs::metrics().counter("serve.errors").value();

  // kMaxConnections watchers, each holding its connection thread until
  // stop(); reading each header proves its thread is serving.
  const std::string header = "{\"ok\":true,\"cmd\":\"watch\"}\n";
  const std::string watch = "{\"cmd\":\"watch\"}\n";
  std::vector<int> watchers;
  for (std::size_t i = 0; i < kMaxConnections; ++i) {
    const int fd = connect_client(cfg.socket_path);
    ASSERT_GE(fd, 0) << i;
    watchers.push_back(fd);
    ASSERT_EQ(::write(fd, watch.data(), watch.size()),
              static_cast<ssize_t>(watch.size()));
    std::string got;
    char ch = 0;
    while (got.size() < header.size() && ::read(fd, &ch, 1) == 1)
      got.push_back(ch);
    ASSERT_EQ(got, header) << i;
  }

  // The next connection is refused at once, without sending a byte.
  const auto asked = std::chrono::steady_clock::now();
  const int extra = connect_client(cfg.socket_path);
  ASSERT_GE(extra, 0);
  std::string refused;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(extra, buf, sizeof buf)) > 0)
    refused.append(buf, static_cast<std::size_t>(n));
  ::close(extra);
  EXPECT_LT(std::chrono::steady_clock::now() - asked,
            std::chrono::seconds(1));
  EXPECT_EQ(refused, "{\"error\":\"busy\",\"max_connections\":" +
                         std::to_string(kMaxConnections) + "}\n");
  // The acceptor counts the refusal after it closes the socket, so the
  // count can land just after the client reads end-of-file.
  const obs::Counter& errors = obs::metrics().counter("serve.errors");
  const auto counted_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (errors.value() == errors0 &&
         std::chrono::steady_clock::now() < counted_by)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(errors.value() - errors0, 1u);

  // stop() ends every watch stream and joins its thread in time.
  auto stopped = std::async(std::launch::async, [&] { server.stop(); });
  const bool in_time =
      stopped.wait_for(kResponseWriteDeadline + std::chrono::seconds(1)) ==
      std::future_status::ready;
  for (const int fd : watchers) ::close(fd);
  stopped.wait();
  EXPECT_TRUE(in_time) << "stop() blocked past the response write deadline";
}

TEST(CampaignServer, WarmStoreAnswersRepeatRequests) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("warm");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::string req =
      "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":1,"
      "\"patterns\":300,\"train_patterns\":800}";
  const auto first = send_request(cfg.socket_path, req);
  const auto second = send_request(cfg.socket_path, req);
  server.stop();
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  // Pass 1 computes, pass 2 answers everything from the warm store.
  EXPECT_NE(first.back().find("\"reused\":0,\"computed\":1"),
            std::string::npos);
  EXPECT_NE(second.back().find("\"reused\":1,\"computed\":0"),
            std::string::npos);
  EXPECT_EQ(server.store().size(), 1u);
}

TEST(CampaignServer, RejectsBadRequestsAndBadSockets) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("errors");
  CampaignServer server(lib(), cfg);
  server.start();
  const auto no_cmd = send_request(cfg.socket_path, "{}");
  ASSERT_EQ(no_cmd.size(), 1u);
  EXPECT_EQ(no_cmd[0], "{\"error\":\"missing cmd\"}");
  // A campaign over an unknown workload streams an error, not a crash.
  const auto bad = send_request(
      cfg.socket_path,
      "{\"cmd\":\"campaign\",\"workloads\":\"nope\"}");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_NE(bad[0].find("\"error\""), std::string::npos);
  server.stop();
  EXPECT_THROW(send_request(cfg.socket_path, "{\"cmd\":\"ping\"}"),
               std::runtime_error);
  CampaignServer unbindable(lib(), ServeConfig{});
  EXPECT_THROW(unbindable.start(), std::runtime_error);
}

TEST(CampaignServer, MalformedRequestJsonStreamsErrorsNotCrashes) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("malformed");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::uint64_t errors0 =
      obs::metrics().counter("serve.errors").value();

  // Garbage, a request truncated mid-string, and a campaign over a
  // circuit the builder rejects: each gets exactly one error line.
  for (const char* req :
       {"this is not json", "{\"cmd\":\"campai",
        "{\"cmd\":\"campaign\",\"circuits\":\"nosuchcircuit\"}"}) {
    const auto reply = send_request(cfg.socket_path, req);
    ASSERT_EQ(reply.size(), 1u) << req;
    EXPECT_NE(reply[0].find("\"error\""), std::string::npos) << req;
  }
  EXPECT_EQ(obs::metrics().counter("serve.errors").value() - errors0, 3u);

  // The daemon shrugged all three off and still answers.
  const auto pong = send_request(cfg.socket_path, "{\"cmd\":\"ping\"}");
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_EQ(pong[0], "{\"ok\":true,\"cmd\":\"ping\"}");
  server.stop();
}

TEST(CampaignServer, SurvivesClientDisconnectMidStream) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("disconnect");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::uint64_t gone0 =
      obs::metrics().counter("serve.disconnects").value();

  // A client that fires a campaign request and hangs up without reading
  // a byte. The daemon is deep in run_campaign when its first stream
  // write hits the closed peer — without MSG_NOSIGNAL that's a SIGPIPE
  // and a dead daemon.
  const int fd = connect_client(cfg.socket_path);
  ASSERT_GE(fd, 0);
  const std::string req =
      "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":1,"
      "\"patterns\":300,\"train_patterns\":800}\n";
  ASSERT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  ::close(fd);

  // The abandoned campaign still runs to completion (the store keeps
  // the cell) and the broken stream is counted, not fatal.
  const auto disconnects_reach = [](std::uint64_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (obs::metrics().counter("serve.disconnects").value() < n &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  disconnects_reach(gone0 + 1);
  EXPECT_EQ(obs::metrics().counter("serve.disconnects").value() - gone0,
            1u);
  EXPECT_EQ(server.store().size(), 1u);

  // A client that reads the start of a multi-buffer stream and hangs
  // up: a later buffer's write fails, which ends that stream and
  // counts as a disconnect. (The ~370 KB stream outgrows the socket's
  // send buffer, ~208 KB by Linux default, so the daemon is still
  // writing when the client goes.)
  const int reader = connect_client(cfg.socket_path);
  ASSERT_GE(reader, 0);
  const std::string long_req = kLongGrid + "\n";
  ASSERT_EQ(::write(reader, long_req.data(), long_req.size()),
            static_cast<ssize_t>(long_req.size()));
  char buf[4096];
  ASSERT_GT(::read(reader, buf, sizeof buf), 0);  // the stream began
  ::close(reader);
  disconnects_reach(gone0 + 2);
  EXPECT_EQ(obs::metrics().counter("serve.disconnects").value() - gone0,
            2u);
  EXPECT_EQ(server.store().size(), 1u + 1024u);

  const auto pong = send_request(cfg.socket_path, "{\"cmd\":\"ping\"}");
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_EQ(pong[0], "{\"ok\":true,\"cmd\":\"ping\"}");
  server.stop();
}

TEST(CampaignServer, LongStreamsKeepGridOrderAcrossSendBuffers) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("long");
  CampaignServer server(lib(), cfg);
  server.start();
  const auto stream = send_request(cfg.socket_path, kLongGrid);
  server.stop();
  ASSERT_EQ(stream.size(), 1025u);
  EXPECT_EQ(stream.back(),
            "{\"done\":true,\"cells\":1024,\"reused\":0,"
            "\"computed\":1024}");
  std::size_t bytes = 0;
  for (const std::string& line : stream) bytes += line.size() + 1;
  EXPECT_GT(bytes, 4u * 64u * 1024u);

  // Exactly the store's lines, in grid order: the same grid run against
  // the daemon's store answers every cell from it, in grid order.
  const CampaignOutcome outcome =
      run_campaign(lib(), long_grid(), server.store());
  ASSERT_EQ(outcome.reused, 1024u);
  for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
    const auto stored = server.store().find(outcome.cells[i].key);
    ASSERT_TRUE(stored.has_value());
    ASSERT_EQ(stream[i], CampaignStore::to_jsonl(*stored)) << "cell " << i;
  }
}

TEST(CampaignServer, FinishedConnectionThreadsAreJoined) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("reap");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::string ping = "{\"cmd\":\"ping\"}";
  ASSERT_EQ(send_request(cfg.socket_path, ping).size(), 1u);  // warm-up
  const double before = vm_size_mb();
  for (int i = 0; i < 64; ++i)
    ASSERT_EQ(send_request(cfg.socket_path, ping).size(), 1u);
  // An unjoined finished thread keeps its 8 MB stack mapped: 64 of
  // them would add 512 MB.
  EXPECT_LT(vm_size_mb() - before, 64.0);
  server.stop();
  EXPECT_EQ(server.requests_served(), 65u);
}

TEST(CampaignServer, StopReturnsWhileClientsHoldIdleConnections) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("idle");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::uint64_t errors0 =
      obs::metrics().counter("serve.errors").value();
  obs::Gauge& active = obs::metrics().gauge("serve.connections.active");
  const double active0 = active.value();

  // One client connects and sends nothing; another trickles a request
  // a byte at a time and never finishes the line.
  const int idle = connect_client(cfg.socket_path);
  ASSERT_GE(idle, 0);
  const int trickle = connect_client(cfg.socket_path);
  ASSERT_GE(trickle, 0);
  std::atomic<bool> trickling{true};
  std::thread trickler([&] {
    const std::string partial = "{\"cmd\":\"ping\"";
    for (std::size_t i = 0; i < partial.size() && trickling; ++i) {
      if (::send(trickle, &partial[i], 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  });
  // Both connection threads are reading their request lines.
  const auto accepted_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (active.value() < active0 + 2.0 &&
         std::chrono::steady_clock::now() < accepted_by)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GE(active.value(), active0 + 2.0);

  // stop() joins the connection threads, so it waits out the read
  // deadline and no longer. Run it on the side: if it hangs, closing
  // the clients releases it and the test fails instead of hanging.
  auto stopped = std::async(std::launch::async, [&] { server.stop(); });
  const bool in_time =
      stopped.wait_for(kRequestReadDeadline + std::chrono::seconds(1)) ==
      std::future_status::ready;
  trickling = false;
  trickler.join();
  if (!in_time) {
    ::close(idle);
    ::close(trickle);
    stopped.wait();
    FAIL() << "stop() blocked past the request read deadline";
  }

  // Each client got the structured timeout line, then end of stream.
  const std::string want = "{\"error\":\"request timeout\",\"deadline_s\":" +
                           std::to_string(kRequestReadDeadline.count()) +
                           "}\n";
  for (const int fd : {idle, trickle}) {
    std::string got;
    char buf[256];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof buf)) > 0)
      got.append(buf, static_cast<std::size_t>(n));
    EXPECT_EQ(got, want);
    ::close(fd);
  }
  EXPECT_EQ(obs::metrics().counter("serve.errors").value() - errors0, 2u);
}

TEST(CampaignServer, StopReturnsWhileAClientStopsReading) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("stalled");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::uint64_t gone0 =
      obs::metrics().counter("serve.disconnects").value();

  // The client asks for the ~370 KB stream and never reads a byte, so
  // the daemon's writes stall once the socket buffer is full.
  const int fd = connect_client(cfg.socket_path);
  ASSERT_GE(fd, 0);
  const std::string req = kLongGrid + "\n";
  ASSERT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  // Every cell is stored before the stream starts.
  const auto computed_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.store().size() < 1024u &&
         std::chrono::steady_clock::now() < computed_by)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(server.store().size(), 1024u);

  // stop() joins the stalled connection thread, so it waits out the
  // write deadline and no longer. Run it on the side: if it hangs,
  // closing the client releases it and the test fails instead.
  auto stopped = std::async(std::launch::async, [&] { server.stop(); });
  const bool in_time =
      stopped.wait_for(kResponseWriteDeadline + std::chrono::seconds(1)) ==
      std::future_status::ready;
  ::close(fd);
  stopped.wait();
  EXPECT_TRUE(in_time) << "stop() blocked past the response write deadline";
  EXPECT_EQ(obs::metrics().counter("serve.disconnects").value() - gone0,
            1u);
}

TEST(CampaignServer, SlowReaderIsServedWithoutBlockingOthers) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("slow");
  CampaignServer server(lib(), cfg);
  server.start();
  const std::uint64_t gone0 =
      obs::metrics().counter("serve.disconnects").value();

  // The client asks for the ~370 KB stream and reads it 2 KiB every
  // 20 ms (at most ~100 KiB/s): slow, but well above the ~11 KB/s a
  // reader must keep up to hold its stream (DESIGN.md §11).
  const int fd = connect_client(cfg.socket_path);
  ASSERT_GE(fd, 0);
  const std::string req = kLongGrid + "\n";
  ASSERT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  std::string got;
  std::atomic<std::size_t> bytes_read{0};
  std::atomic<bool> reading{true};
  std::thread reader([&] {
    char buf[2048];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof buf)) > 0) {
      got.append(buf, static_cast<std::size_t>(n));
      bytes_read += static_cast<std::size_t>(n);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    reading = false;
  });

  // Mid-stream, another client's ping is answered promptly.
  const auto streaming_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (bytes_read < 64u * 1024u && reading &&
         std::chrono::steady_clock::now() < streaming_by)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(bytes_read.load(), 64u * 1024u);
  const auto asked = std::chrono::steady_clock::now();
  const auto pong = send_request(cfg.socket_path, "{\"cmd\":\"ping\"}");
  const auto answered_in = std::chrono::steady_clock::now() - asked;
  EXPECT_TRUE(reading) << "the slow stream ended before the ping";
  ASSERT_EQ(pong.size(), 1u);
  EXPECT_EQ(pong[0], "{\"ok\":true,\"cmd\":\"ping\"}");
  EXPECT_LT(answered_in, std::chrono::seconds(1));

  reader.join();
  ::close(fd);
  server.stop();
  EXPECT_EQ(obs::metrics().counter("serve.disconnects").value() - gone0,
            0u);

  // Every line arrived: the store's lines in grid order, then the
  // footer.
  std::vector<std::string> stream;
  for (std::size_t at = 0, nl = 0;
       (nl = got.find('\n', at)) != std::string::npos; at = nl + 1)
    stream.push_back(got.substr(at, nl - at));
  ASSERT_EQ(stream.size(), 1025u);
  EXPECT_EQ(stream.back(),
            "{\"done\":true,\"cells\":1024,\"reused\":0,"
            "\"computed\":1024}");
  const CampaignOutcome outcome =
      run_campaign(lib(), long_grid(), server.store());
  ASSERT_EQ(outcome.reused, 1024u);
  for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
    const auto stored = server.store().find(outcome.cells[i].key);
    ASSERT_TRUE(stored.has_value());
    ASSERT_EQ(stream[i], CampaignStore::to_jsonl(*stored)) << "cell " << i;
  }
}

TEST(CampaignServer, StatsVerbReportsManifestAndMetrics) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("stats");
  CampaignServer server(lib(), cfg);
  server.start();

  // Idle daemon: the stats request is itself the first served request.
  const auto idle = send_request(cfg.socket_path, "{\"cmd\":\"stats\"}");
  ASSERT_EQ(idle.size(), 1u);
  EXPECT_NE(idle[0].find("\"ok\":true,\"cmd\":\"stats\""),
            std::string::npos);
  EXPECT_NE(idle[0].find("\"uptime_s\":"), std::string::npos);
  EXPECT_NE(idle[0].find("\"requests_served\":1"), std::string::npos);
  EXPECT_NE(idle[0].find("\"active_connections\":1"), std::string::npos);
  EXPECT_NE(idle[0].find("\"store_cells\":0"), std::string::npos);
  // The embedded run manifest identifies the daemon...
  EXPECT_NE(idle[0].find("\"manifest\":{\"vosim_manifest\":1"),
            std::string::npos);
  EXPECT_NE(idle[0].find("\"tool\":\"serve\""), std::string::npos);
  EXPECT_NE(idle[0].find("\"config_hash\":"), std::string::npos);
  // ...and the metrics block is the process-wide snapshot.
  EXPECT_NE(idle[0].find("\"metrics\":{\"counters\":{"),
            std::string::npos);

  // Busy daemon: after a campaign the store and counters have moved.
  const auto stream = send_request(
      cfg.socket_path,
      "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":1,"
      "\"patterns\":300,\"train_patterns\":800}");
  ASSERT_FALSE(stream.empty());
  const auto busy = send_request(cfg.socket_path, "{\"cmd\":\"stats\"}");
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_NE(busy[0].find("\"requests_served\":3"), std::string::npos);
  EXPECT_NE(busy[0].find("\"store_cells\":1"), std::string::npos);
  EXPECT_NE(busy[0].find("\"campaign.cache.miss\":"), std::string::npos);
  server.stop();
}

TEST(CampaignServer, UnknownVerbReturnsStructuredError) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("unknown");
  CampaignServer server(lib(), cfg);
  server.start();
  // The error line is self-diagnosing: it echoes the verb back and
  // enumerates the supported set, so a client can repair itself.
  const auto bad = send_request(cfg.socket_path, "{\"cmd\":\"nope\"}");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0],
            "{\"error\":\"unknown cmd\",\"cmd\":\"nope\",\"known\":"
            "[\"campaign\",\"ping\",\"shutdown\",\"stats\",\"watch\"]}");
  server.stop();
}

TEST(CampaignServer, WatchVerbStreamsComputedCellsWithBacklog) {
  ServeConfig cfg;
  cfg.socket_path = socket_path("watch");
  CampaignServer server(lib(), cfg);
  server.start();

  // A campaign computes 2 cells; each fans out to the watch log.
  const std::string campaign_fir =
      "{\"cmd\":\"campaign\",\"workloads\":\"fir\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":2,"
      "\"patterns\":300,\"train_patterns\":800}";
  const auto stream = send_request(cfg.socket_path, campaign_fir);
  ASSERT_EQ(stream.size(), 3u);  // 2 cells + done footer
  EXPECT_EQ(server.watch_events(), 2u);

  // A late watcher still sees them: attach starts at the retained
  // backlog, so limit=2 drains the two events and closes with the
  // footer — no live campaign needed.
  const auto backlog =
      send_request(cfg.socket_path, "{\"cmd\":\"watch\",\"limit\":2}");
  ASSERT_EQ(backlog.size(), 4u);  // header + 2 cells + footer
  EXPECT_EQ(backlog[0], "{\"ok\":true,\"cmd\":\"watch\"}");
  EXPECT_EQ(backlog.back(),
            "{\"done\":true,\"cmd\":\"watch\",\"events\":2,"
            "\"dropped\":0}");
  // The streamed lines are the stored cell form, byte for byte.
  for (std::size_t i = 1; i + 1 < backlog.size(); ++i) {
    EXPECT_NE(backlog[i].find("\"workload\":\"fir\""),
              std::string::npos);
    EXPECT_NE(backlog[i].find("\"circuit\":\"rca16\""),
              std::string::npos);
  }

  // Reused cells never re-publish: the same grid again answers from
  // the warm store and the event log does not move.
  const auto warm = send_request(cfg.socket_path, campaign_fir);
  ASSERT_FALSE(warm.empty());
  EXPECT_NE(warm.back().find("\"reused\":2,\"computed\":0"),
            std::string::npos);
  EXPECT_EQ(server.watch_events(), 2u);

  // A live watcher: attach first, then compute 2 fresh cells. The
  // watcher's limit=4 stream is the 2-event backlog plus the 2 new
  // cells as they finish.
  std::vector<std::string> live;
  std::thread watcher([&] {
    live = send_request(cfg.socket_path,
                        "{\"cmd\":\"watch\",\"limit\":4}");
  });
  const auto dot = send_request(
      cfg.socket_path,
      "{\"cmd\":\"campaign\",\"workloads\":\"dot\",\"circuits\":"
      "\"rca16\",\"backends\":\"model\",\"max_triads\":2,"
      "\"patterns\":300,\"train_patterns\":800}");
  ASSERT_EQ(dot.size(), 3u);
  watcher.join();
  ASSERT_EQ(live.size(), 6u);  // header + 4 cells + footer
  EXPECT_EQ(live.back(),
            "{\"done\":true,\"cmd\":\"watch\",\"events\":4,"
            "\"dropped\":0}");
  EXPECT_NE(live[4].find("\"workload\":\"dot\""), std::string::npos);

  // The stats verb surfaces the watch counters.
  const auto stats =
      send_request(cfg.socket_path, "{\"cmd\":\"stats\"}");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_NE(stats[0].find("\"watchers\":0"), std::string::npos);
  EXPECT_NE(stats[0].find("\"watch_events\":4"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace vosim
