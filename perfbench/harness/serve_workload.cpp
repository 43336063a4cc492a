// serve_tree: a qwm_serve child process under a closed-loop read mix and
// an open-loop what-if stream, over TCP loopback.
//
// The child LOADs gen:tree:10000:seed=S. Three query connections each
// send their next request as soon as the previous reply arrives: 70 %
// ARRIVAL, 15 % SLACK <net> 2n, 10 % CRITPATH, 5 % STATS. A fourth
// connection sends one what-if (RESIZE, UPDATE, CRITPATH) every 100 ms on
// a fixed schedule; each what-if is timed from when it was due, so a stall
// counts against every what-if it delays. The load generator is this one
// process with four threads (three readers plus the main thread).
//
// After the run the committed what-if sequence is replayed on a fresh
// in-process single-lane server; ARRIVAL replies for a seeded sample of
// nets must match the child's byte for byte at the final epoch.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <thread>

#include "qwm/frontend/elaborate.h"
#include "qwm/frontend/generate.h"
#include "qwm/service/server.h"
#include "workloads.h"

namespace perfbench {

using namespace qwm;

namespace {

constexpr int kSetups = 7;  ///< spawn + LOAD moves by ±30 %; take many
constexpr int kReaders = 3;
constexpr double kWhatIfPeriodS = 0.1;  ///< 10 what-ifs per second
constexpr int kMinWhatIfs = 100;
constexpr int kVerifyNets = 200;
constexpr int kReplayWhatIfs = 20;     ///< traced in-process replay
constexpr int kReplayReads = 200;      ///< reads per replayed what-if
constexpr int kRecvTimeoutS = 20;
const char* const kSlackPeriod = "2n";

/// One blocking line-protocol connection to 127.0.0.1:port.
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool open(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{kRecvTimeoutS, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
           0;
  }

  /// Sends one request line and reads one reply line. False on a
  /// transport error or timeout.
  bool call(const std::string& request, std::string* reply) {
    const std::string out = request + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        reply->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// The qwm_serve child. The destructor kills and reaps it if it is still
/// running, so no exit path leaves it behind.
class Child {
 public:
  Child() = default;
  ~Child() { kill_now(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool spawn(const std::string& bin, const std::string& port_file) {
    std::remove(port_file.c_str());
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::dup2(2, 1);  // keep the harness's stdout for its record only
      ::execl(bin.c_str(), bin.c_str(), "--port", "0", "--port-file",
              port_file.c_str(), "--threads", "4",
              static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    // Wait for the port file (the daemon writes it after bind).
    for (int i = 0; i < 3000; ++i) {
      std::ifstream pf(port_file);
      if (pf >> port_ && port_ > 0) return true;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  int port() const { return port_; }

  /// Waits for a requested shutdown; returns the child's peak RSS [MB]
  /// (0 if it had to be killed).
  double reap() {
    for (int i = 0; i < 1000 && pid_ > 0; ++i) {
      int status = 0;
      struct rusage ru {};
      if (::wait4(pid_, &status, WNOHANG, &ru) == pid_) {
        pid_ = -1;
        return static_cast<double>(ru.ru_maxrss) / 1024.0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    kill_now();
    return 0.0;
  }

 private:
  void kill_now() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
  int port_ = 0;
};

enum ReadVerb { kArrival, kSlack, kCritPath, kStats, kReadVerbs };
const char* const kReadVerbNames[kReadVerbs] = {"arrival", "slack",
                                                "critpath", "stats"};

ReadVerb pick_read(std::mt19937_64& rng) {
  const auto u = rng() % 100;
  return u < 70 ? kArrival : u < 85 ? kSlack : u < 95 ? kCritPath : kStats;
}

std::string read_line(ReadVerb v, const std::string& net) {
  switch (v) {
    case kArrival: return "ARRIVAL " + net;
    case kSlack: return "SLACK " + net + " " + kSlackPeriod;
    case kCritPath: return "CRITPATH";
    default: return "STATS";
  }
}

struct Outcome {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;    ///< ERR reply, refused or timed out
  std::uint64_t degraded = 0;  ///< OK DEGRADED
  void note(bool transport_ok, const std::string& reply) {
    ++sent;
    if (!transport_ok || reply.rfind("ERR", 0) == 0)
      ++failed;
    else if (reply.rfind("OK DEGRADED", 0) == 0)
      ++degraded;
  }
};

struct ReaderResult {
  Outcome out;
  std::vector<double> rtt_us[kReadVerbs];
  /// Reads completed in each whole second of the run.
  std::vector<std::uint64_t> per_second;
};

void reader_loop(int port, std::uint64_t seed,
                 const std::vector<std::string>& nets, Clock::time_point start,
                 const std::atomic<bool>& stop, ReaderResult* res) {
  Conn c;
  if (!c.open(port)) {
    res->out.note(false, "");
    return;
  }
  std::mt19937_64 rng(seed);
  std::string reply;
  while (!stop.load(std::memory_order_relaxed)) {
    const ReadVerb v = pick_read(rng);
    const std::string req = read_line(v, nets[rng() % nets.size()]);
    const std::int64_t t0 = now_ns();
    const bool ok = c.call(req, &reply);
    res->rtt_us[v].push_back(1e-3 * static_cast<double>(now_ns() - t0));
    res->out.note(ok, reply);
    if (!ok) return;  // the connection is gone
    const auto sec = static_cast<std::size_t>(seconds_since(start));
    if (res->per_second.size() <= sec) res->per_second.resize(sec + 1, 0);
    ++res->per_second[sec];
  }
}

/// The RESIZE lines of `count` seeded what-ifs.
std::vector<std::string> make_what_ifs(
    const circuit::PartitionedDesign& design, std::uint64_t seed, int count) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 3);
  std::vector<std::string> out;
  for (int i = 0; i < count; ++i) {
    const WhatIf w = pick_what_if(design, rng);
    char buf[128];
    std::snprintf(buf, sizeof buf, "RESIZE %d %d %.17g", w.stage, w.edge,
                  w.width);
    out.push_back(buf);
  }
  return out;
}

/// Value of `key=` in a reply line ("" when absent).
std::string field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const auto p = line.find(needle);
  if (p == std::string::npos) return "";
  const auto b = p + needle.size();
  return line.substr(b, line.find(' ', b) - b);
}

double field_num(const std::string& line, const std::string& key) {
  const std::string v = field(line, key);
  return v.empty() ? 0.0 : std::atof(v.c_str());
}

bool is_ok(const std::string& reply) { return reply.rfind("OK", 0) == 0; }

}  // namespace

int run_serve(const RunOptions& o, Record& rec) {
  if (o.serve_bin.empty()) {
    rec.check(false, "usage", "serve_tree needs --serve-bin");
    return 2;
  }
  const std::string source = "gen:tree:10000:seed=" + std::to_string(o.seed);
  const std::string port_file =
      o.serve_bin + ".port." + std::to_string(::getpid());
  Tracer& tr = rec.tracer;

  // The workload's inputs: the same generated design, elaborated here to
  // pick what-if targets and query nets. Not part of the child's set-up.
  Models models;
  const auto spec = frontend::parse_gen_spec(source);
  const frontend::ElaboratedDesign elab =
      frontend::elaborate(frontend::generate_netlist(*spec), models.set());
  std::vector<std::string> nets;
  for (const auto& info : elab.design.stages)
    for (const netlist::NetId n : info.output_nets)
      nets.push_back(elab.nl.net_name(n));
  const int n_whatif = std::max(
      kMinWhatIfs, static_cast<int>(std::ceil(o.seconds / kWhatIfPeriodS)));
  const std::vector<std::string> what_ifs =
      make_what_ifs(elab.design, o.seed, n_whatif);

  // Set-up: spawn the daemon and LOAD, three times; keep the last child.
  auto child = std::make_unique<Child>();
  auto conn = std::make_unique<Conn>();
  std::string reply;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) {
      conn->call("SHUTDOWN", &reply);
      child->reap();
      child = std::make_unique<Child>();
      conn = std::make_unique<Conn>();
    }
    const std::int64_t t0 = now_ns();
    const bool up = child->spawn(o.serve_bin, port_file) &&
                    conn->open(child->port()) &&
                    conn->call("LOAD " + source, &reply) && is_ok(reply);
    rec.check(up, "load", "qwm_serve set-up failed: " + reply);
    if (!up) return 1;
    rec.sample("setup_s", 1e-9 * static_cast<double>(now_ns() - t0));
  }
  std::remove(port_file.c_str());
  const int port = child->port();

  // The timed run.
  std::atomic<bool> stop{false};
  std::vector<ReaderResult> readers(kReaders);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int r = 0; r < kReaders; ++r)
    threads.emplace_back(reader_loop, port, o.seed * 31 + r, std::cref(nets),
                         start, std::cref(stop), &readers[r]);
  Outcome whatif_out;
  for (int i = 0; i < n_whatif; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(i * kWhatIfPeriodS));
    std::this_thread::sleep_until(due);
    rec.sample("whatif_late_ms",
               std::chrono::duration<double, std::milli>(Clock::now() - due)
                   .count());
    bool ok = true;
    for (const std::string verb : {"resize", "update", "critpath"}) {
      const std::string req = verb == "resize"   ? what_ifs[i]
                              : verb == "update" ? "UPDATE"
                                                 : "CRITPATH";
      const std::int64_t t0 = now_ns();
      const bool t_ok = conn->call(req, &reply);
      rec.sample((verb == "critpath" ? "rtt_us.whatif_" : "rtt_us.") + verb,
                 1e-3 * static_cast<double>(now_ns() - t0));
      whatif_out.note(t_ok, reply);
      ok = ok && t_ok && is_ok(reply);
      if (verb == "update" && t_ok)
        rec.sample("update_evals", field_num(reply, "evals"));
    }
    rec.sample("whatif_s",
               std::chrono::duration<double>(Clock::now() - due).count());
    rec.check(ok, "whatif", "what-if " + std::to_string(i) + ": " + reply);
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  const double wall = seconds_since(start);

  // Read rate per whole second; the last, partial second is dropped.
  const auto whole = static_cast<std::size_t>(wall);
  for (std::size_t sec = 0; sec < whole; ++sec) {
    std::uint64_t n = 0;
    for (const ReaderResult& r : readers)
      if (sec < r.per_second.size()) n += r.per_second[sec];
    rec.sample("reads_per_s", static_cast<double>(n));
  }
  Outcome reads;
  for (const ReaderResult& r : readers) {
    reads.sent += r.out.sent;
    reads.failed += r.out.failed;
    reads.degraded += r.out.degraded;
    for (int v = 0; v < kReadVerbs; ++v)
      for (const double us : r.rtt_us[v])
        rec.sample(std::string("rtt_us.") + kReadVerbNames[v], us);
  }
  rec.scalars["requests_sent"] =
      static_cast<double>(reads.sent + whatif_out.sent);
  rec.scalars["requests_failed"] =
      static_cast<double>(reads.failed + whatif_out.failed);
  rec.scalars["requests_degraded"] =
      static_cast<double>(reads.degraded + whatif_out.degraded);
  rec.attempted = reads.sent + whatif_out.sent;
  rec.failed = reads.failed + whatif_out.failed;

  // Server-side view: handler means per verb, slack memo, admission.
  if (conn->call("STATS", &reply) && is_ok(reply)) {
    for (const char* v : {"arrival", "slack", "critpath", "stats", "resize",
                          "update"})
      rec.layers[std::string("service.handler_ms.") + v] =
          field_num(reply, std::string(v) + ".mean_ms");
    rec.layers["service.busy"] = field_num(reply, "busy");
    const double hits = field_num(reply, "slack_memo_hits");
    const double misses = field_num(reply, "slack_memo_misses");
    rec.layers["service.slack_memo_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    rec.layers["qwm.fallback_damped"] = field_num(reply, "fallback_damped");
    rec.layers["qwm.fallback_bisect"] = field_num(reply, "fallback_bisect");
    rec.layers["qwm.fallback_spice"] = field_num(reply, "fallback_spice");
    rec.layers["device.evals"] = field_num(reply, "device_evals");
    rec.layers["qwm.newton_iters"] = field_num(reply, "newton_iters");
    const double ch = field_num(reply, "cache_hits");
    const double cm = field_num(reply, "cache_misses");
    rec.layers["cache.lookups"] = ch + cm;
    rec.layers["cache.hit_ratio"] = ch + cm > 0 ? ch / (ch + cm) : 0.0;
    rec.layers["ws.high_water_bytes"] = field_num(reply, "ws_bytes");
  } else {
    rec.check(false, "stats", "STATS failed: " + reply);
  }

  // Correctness: replay the committed what-ifs on a fresh in-process
  // single-lane server and compare ARRIVAL replies at the final epoch.
  service::Server local;
  bool replay_ok = is_ok(local.handle_line("LOAD " + source));
  for (const std::string& resize : what_ifs)
    replay_ok = replay_ok && is_ok(local.handle_line(resize)) &&
                is_ok(local.handle_line("UPDATE"));
  rec.check(replay_ok, "replay", "in-process replay of the what-ifs failed");
  std::mt19937_64 pick(o.seed * 7919 + 5);
  int mismatches = 0;
  std::string first_mismatch;
  for (int i = 0; i < kVerifyNets; ++i) {
    const std::string req = "ARRIVAL " + nets[pick() % nets.size()];
    const std::string expect = local.handle_line(req);
    ++rec.attempted;
    if (!conn->call(req, &reply) || reply != expect) {
      ++rec.failed;
      if (mismatches++ == 0)
        first_mismatch = req + ": " + reply + " vs " + expect;
    }
  }
  rec.check(mismatches == 0, "final_epoch_bitwise",
            std::to_string(mismatches) + " ARRIVAL mismatches; " +
                first_mismatch);

  conn->call("SHUTDOWN", &reply);
  conn.reset();
  rec.scalars["peak_rss_mb"] = child->reap();
  rec.check(rec.scalars["peak_rss_mb"] > 0.0, "shutdown",
            "qwm_serve did not exit after SHUTDOWN");

  if (o.trace) {
    // Layer split, in process: the same mix through Server::handle_line,
    // and the DesignDb calls behind a what-if timed one by one.
    std::mt19937_64 rng(o.seed * 131 + 9);
    const std::vector<std::string> more =
        make_what_ifs(elab.design, o.seed + 1000003, kReplayWhatIfs);
    std::int64_t req_id = 0;
    for (const std::string& resize : more) {
      Scope it(tr, "iteration");
      {
        Scope s(tr, "service.handle.resize", req_id++);
        local.handle_line(resize);
      }
      std::int64_t t = now_ns();
      service::MutateReply up;
      {
        Scope s(tr, "sta.update", req_id++);
        up = local.db().update();
      }
      rec.sample("update_ms", 1e-6 * static_cast<double>(now_ns() - t));
      t = now_ns();
      {
        Scope s(tr, "sta.critpath", req_id++);
        (void)local.db().critical_path();
      }
      rec.sample("critpath_ms",
                 1e-6 * static_cast<double>(now_ns() - t));
      t = now_ns();
      {
        Scope s(tr, "sta.slacks", req_id++);
        (void)local.db().slack(nets.front(), 2e-9);
      }
      rec.sample("slacks_ms", 1e-6 * static_cast<double>(now_ns() - t));
      for (int r = 0; r < kReplayReads; ++r) {
        const ReadVerb v = pick_read(rng);
        const std::string req = read_line(v, nets[rng() % nets.size()]);
        Scope s(tr, std::string("service.handle.") + kReadVerbNames[v],
                req_id++);
        local.handle_line(req);
      }
    }
  }
  return rec.failed_checks.empty() ? 0 : 1;
}

}  // namespace perfbench
