// server-ack-1k: montage_kv_server (2 worker threads, file-backed region,
// default persistence mode) driven by one client thread on 4 loopback
// connections in a closed loop with a fixed pipeline window. Connections 0
// and 1 send zipfian sets of 1000-byte values, each over its own half of the
// keys; connections 2 and 3 send zipfian gets over all keys.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "checker.hpp"
#include "inproc.hpp"
#include "kvstore/memcache.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr uint64_t kKeys = 50'000;
constexpr int kConns = 4;
// Requests in flight per connection. Sets spend most of their time waiting
// for the ACK; a small get window leaves the server's workers slack, which
// keeps the syncer's wake-ups prompt (a saturated server switches between a
// fast and a slow mode from run to run).
constexpr std::size_t kSetWindow = 16;
constexpr std::size_t kGetWindow = 4;
constexpr std::size_t kLoadWindow = 64;  // while preloading and checking

// ---- the server process ------------------------------------------------------

struct Server {
  pid_t pid = -1;
  uint16_t port = 0;
  std::string log;  ///< its stderr: the structured log lines
};

Server spawn_server(const Args& a, const std::string& region, const std::string& tag) {
  Server s;
  const std::string port_file = a.work_dir + "/server-" + tag + ".port";
  s.log = a.work_dir + "/server-" + tag + ".log";
  ::unlink(port_file.c_str());
  const std::string bin = a.bin_dir + "/montage_kv_server";
  const std::string port_arg = "--port-file=" + port_file;
  std::fflush(nullptr);
  s.pid = ::fork();
  if (s.pid < 0) throw std::runtime_error("fork failed");
  if (s.pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    pin_self({0, 1, 2});  // the server's threads; the client has the fourth
    ::setenv("MONTAGE_SERVER_PORT", "0", 1);
    ::setenv("MONTAGE_SERVER_THREADS", "2", 1);
    ::setenv("MONTAGE_SERVER_REGION", region.c_str(), 1);
    ::setenv("MONTAGE_SERVER_REGION_MB", "512", 1);
    const int fd = ::open(s.log.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execl(bin.c_str(), bin.c_str(), port_arg.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  const uint64_t give_up = now_ns() + 60'000'000'000ull;
  while (now_ns() < give_up) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "r")) {
      unsigned p = 0;
      const int got = std::fscanf(f, "%u", &p);
      std::fclose(f);
      if (got == 1 && p != 0) {
        s.port = static_cast<uint16_t>(p);
        ::unlink(port_file.c_str());
        return s;
      }
    }
    int st = 0;
    if (::waitpid(s.pid, &st, WNOHANG) == s.pid) {
      s.pid = -1;
      throw std::runtime_error("montage_kv_server exited during start-up (see " +
                               s.log + ")");
    }
    ::usleep(500);
  }
  ::kill(s.pid, SIGKILL);
  ::waitpid(s.pid, nullptr, 0);
  throw std::runtime_error("montage_kv_server did not publish its port");
}

void kill_server(Server& s) {
  if (s.pid <= 0) return;
  ::kill(s.pid, SIGKILL);
  while (::waitpid(s.pid, nullptr, 0) < 0 && errno == EINTR) {
  }
  s.pid = -1;
}

int connect_to(uint16_t port, bool nonblocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (nonblocking) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// `stats montage` over a blocking connection: STAT name value rows.
Counters stats_montage(int fd) {
  const char req[] = "stats montage\r\n";
  if (::write(fd, req, sizeof req - 1) != static_cast<ssize_t>(sizeof req - 1)) {
    throw std::runtime_error("stats montage: write failed");
  }
  std::string in;
  char buf[65536];
  while (in.size() < 5 || in.compare(in.size() - 5, 5, "END\r\n") != 0) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) throw std::runtime_error("stats montage: connection lost");
    in.append(buf, static_cast<std::size_t>(n));
  }
  Counters out;
  std::size_t pos = 0;
  while (pos < in.size()) {
    const std::size_t eol = in.find("\r\n", pos);
    const std::string line = in.substr(pos, eol - pos);
    pos = eol + 2;
    char name[160];
    double v = 0;
    if (std::sscanf(line.c_str(), "STAT %159s %lf", name, &v) == 2) out[name] = v;
  }
  return out;
}

/// Counter deltas in the names add_layer_metrics reads. Percentile rows of
/// `stats montage` are cumulative since the server started.
Counters server_delta(const Counters& a, const Counters& b) {
  Counters d;
  for (const auto& [k, v] : b) {
    const auto it = a.find(k);
    const bool pct = k.size() > 4 && (k.compare(k.size() - 4, 4, "_p50") == 0 ||
                                      k.compare(k.size() - 4, 4, "_p99") == 0);
    d[k] = pct || it == a.end() ? v : v - it->second;
  }
  d["nvm.lines"] = d["nvm.lines_flushed_total"];
  d["nvm.fences"] = d["nvm.fences_total"];
  return d;
}

/// Reads a numeric field of the server's "recovered" log line.
double log_field(const std::string& log, const std::string& field) {
  std::ifstream f(log);
  std::string line;
  while (std::getline(f, line)) {
    if (line.find("\"event\":\"recovered\"") == std::string::npos) continue;
    const auto at = line.find("\"" + field + "\":");
    if (at != std::string::npos) {
      return std::strtod(line.c_str() + at + field.size() + 3, nullptr);
    }
  }
  return 0;
}

/// Keys of which the crash image at `path` holds an insert payload with the
/// fingerprint of a known fault. MontageMemCache::set stamps a new payload's
/// header tag after pnew. A sync() on another thread can seal the header
/// checksum in between, and the tag store then leaves the checksum stale, so
/// recovery quarantines the payload. The fingerprint: a live header of an
/// insert (BlkType::kAlloc) with the cache's tag, whose checksum is wrong as
/// stored but right with the tag word set to 0.
std::unordered_set<uint64_t> stale_tag_inserts(const std::string& path) {
  using Item = montage::kvstore::MontageMemCache::ItemPayload;
  std::unordered_set<uint64_t> keys;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  const off_t size = ::lseek(fd, 0, SEEK_END);
  void* map = ::mmap(nullptr, static_cast<std::size_t>(size), PROT_READ, MAP_SHARED, fd, 0);
  if (map == MAP_FAILED) {
    ::close(fd);
    throw std::runtime_error("cannot map " + path);
  }
  const char* base = static_cast<const char*>(map);
  alignas(Item) unsigned char copy[sizeof(Item)];
  for (off_t pos = 0; pos < size;) {
    const off_t data = ::lseek(fd, pos, SEEK_DATA);
    if (data < 0) break;  // only a hole remains
    off_t hole = ::lseek(fd, data, SEEK_HOLE);
    if (hole < 0) hole = size;
    for (off_t at = data & ~off_t{7}; at + static_cast<off_t>(sizeof(Item)) <= size && at < hole;
         at += 8) {
      uint64_t word;
      std::memcpy(&word, base + at, sizeof word);
      if (word != montage::kPBlkMagic) continue;
      std::memcpy(copy, base + at, sizeof copy);
      auto* p = reinterpret_cast<Item*>(copy);
      if (p->blk_checksum_ok() || p->blk_type() != montage::BlkType::kAlloc ||
          p->blk_tag() != montage::kvstore::MontageMemCache::kPayloadTag) {
        continue;
      }
      p->set_blk_tag(0);
      uint64_t k = 0;
      if (p->blk_checksum_ok() && parse_key(p->get_unsafe_key().view(), &k)) keys.insert(k);
    }
    pos = hole;
  }
  ::munmap(map, static_cast<std::size_t>(size));
  ::close(fd);
  return keys;
}

// ---- the client --------------------------------------------------------------

class Client {
 public:
  enum class Mode { kPreload, kRun, kCheck };

  Client(uint64_t seed, std::vector<uint64_t>* issued, std::vector<uint64_t>* acked)
      : issued_(*issued), acked_(*acked) {
    for (int c = 0; c < 2; ++c) set_zipf_.emplace_back(kKeys / 2, 0.99, seed * 11 + c);
    for (int c = 0; c < 2; ++c) get_zipf_.emplace_back(kKeys, 0.99, seed * 11 + 5 + c);
  }
  ~Client() { disconnect(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void connect(uint16_t port) {
    disconnect();
    for (auto& c : conns_) c.fd = connect_to(port, true);
  }
  void disconnect() {
    for (auto& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
      c = Conn{};
    }
  }

  /// Issues requests in `mode` until `until_ns` (preload and check: until
  /// every key, from the first, has been sent), then waits for every reply
  /// when `drain` is set.
  void pump(Mode mode, uint64_t until_ns, bool drain);

  // Set by the caller around the timed window.
  bool recording = false;
  Tracer::Thread* tt = nullptr;
  uint32_t n_iter = 0, n_set = 0, n_get = 0;
  Slices slices;
  SliceTotals st;
  std::unique_ptr<WindowSeries> series;
  uint64_t ops = 0, sets = 0;
  /// Keys that the crash image holds as an insert stamped with the known
  /// fault's fingerprint (see stale_tag_inserts); set before a check. A lost
  /// key always fails the run; this only names the likely cause.
  const std::unordered_set<uint64_t>* stale_tag = nullptr;
  Result res;

 private:
  struct Req {
    bool set;
    uint64_t key, ver, lo, t_send, id;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::string in;
    std::size_t in_off = 0;
    std::deque<Req> pending;
  };

  bool issue(int c, Mode mode, uint64_t now);
  void parse(Conn& c, uint64_t now);
  void complete(const Req& r, uint64_t now);

  std::vector<uint64_t>& issued_;
  std::vector<uint64_t>& acked_;
  std::vector<Zipf> set_zipf_, get_zipf_;
  Conn conns_[kConns];
  uint64_t cursor_ = 0;  ///< next key for preload and check
  bool check_pass_ = false;
  uint64_t next_id_ = 1;
};

bool Client::issue(int c, Mode mode, uint64_t now) {
  Conn& cn = conns_[c];
  Req r{false, 0, 0, 0, now, next_id_++};
  if (mode == Mode::kRun) {
    r.set = c < 2;
    r.key = r.set ? 2 * set_zipf_[c].next() + c : get_zipf_[c - 2].next();
  } else {
    if (cursor_ >= kKeys) return false;
    r.set = mode == Mode::kPreload;
    r.key = cursor_++;
  }
  const std::string key = key_of(r.key);
  if (r.set) {
    r.ver = ++issued_[r.key];
    cn.out += "set " + key + " 0 0 " + std::to_string(kValueBytes) + "\r\n";
    cn.out += make_value(r.key, r.ver);
    cn.out += "\r\n";
  } else {
    r.lo = acked_[r.key];
    cn.out += "get " + key + "\r\n";
  }
  cn.pending.push_back(r);
  return true;
}

void Client::complete(const Req& r, uint64_t now) {
  if (!recording) return;
  if (r.set) {
    series->write(now, now - r.t_send);
  } else {
    series->read(now, now - r.t_send);
  }
  ++ops;
  if (r.set) ++sets;
  if (tt != nullptr && slices.traced(now)) tt->leaf(r.set ? n_set : n_get, r.id, r.t_send, now);
}

void Client::parse(Conn& c, uint64_t now) {
  while (!c.pending.empty()) {
    const std::size_t eol = c.in.find("\r\n", c.in_off);
    if (eol == std::string::npos) break;
    const std::string_view line(c.in.data() + c.in_off, eol - c.in_off);
    const Req r = c.pending.front();
    std::size_t next = eol + 2;
    if (r.set) {
      if (line == "STORED") {
        if (r.ver > acked_[r.key]) acked_[r.key] = r.ver;
      } else {
        res.reject("set " + key_of(r.key) + ": " + std::string(line));
      }
    } else if (line.rfind("VALUE ", 0) == 0) {
      const std::size_t sp = line.rfind(' ');
      const std::size_t n = std::strtoull(std::string(line.substr(sp + 1)).c_str(),
                                          nullptr, 10);
      if (c.in.size() < next + n + 7) break;  // value, CRLF, END CRLF
      const std::string_view val(c.in.data() + next, n);
      if (c.in.compare(next + n, 7, "\r\nEND\r\n") != 0) {
        res.reject("get " + key_of(r.key) + ": malformed reply");
      } else if (std::string err = check_read(val, r.key, r.lo, issued_[r.key]);
                 !err.empty()) {
        res.reject(err);
      }
      next += n + 7;
    } else if (line == "END" && check_pass_) {
      const bool stale = stale_tag != nullptr && stale_tag->count(r.key) != 0;
      res.reject("after kill and recovery: key " + std::to_string(r.key) +
                 " lost (acknowledged version " + std::to_string(r.lo) + ")" +
                 (stale ? "; its insert carries a header checksum stale in the tag word"
                        : ""));
    } else if (line == "END") {
      res.reject("get of preloaded key " + std::to_string(r.key) + " missed");
    } else {
      res.reject("get " + key_of(r.key) + ": " + std::string(line));
    }
    c.in_off = next;
    c.pending.pop_front();
    complete(r, now);
  }
  if (c.in_off == c.in.size()) {
    c.in.clear();
    c.in_off = 0;
  } else if (c.in_off > (1u << 20)) {
    c.in.erase(0, c.in_off);
    c.in_off = 0;
  }
}

void Client::pump(Mode mode, uint64_t until_ns, bool drain) {
  check_pass_ = mode == Mode::kCheck;
  if (mode != Mode::kRun) cursor_ = 0;

  char buf[1 << 16];
  for (;;) {
    const uint64_t t_iter = now_ns();
    const bool issuing = mode == Mode::kRun ? t_iter < until_ns : cursor_ < kKeys;
    const bool traced = recording && tt != nullptr && slices.traced(t_iter);
    uint32_t span = 0;
    if (traced) span = tt->open(n_iter, 0, t_iter);
    bool waiting = false;
    pollfd pfd[kConns];
    for (int c = 0; c < kConns; ++c) {
      Conn& cn = conns_[c];
      const std::size_t window =
          mode != Mode::kRun ? kLoadWindow : c < 2 ? kSetWindow : kGetWindow;
      while (issuing && cn.pending.size() < window && issue(c, mode, now_ns())) {
      }
      if (!cn.out.empty()) {
        const ssize_t n = ::write(cn.fd, cn.out.data(), cn.out.size());
        if (n > 0) cn.out.erase(0, static_cast<std::size_t>(n));
        if (n < 0 && errno != EAGAIN) throw std::runtime_error("client write failed");
      }
      pfd[c] = pollfd{cn.fd, static_cast<short>(POLLIN | (cn.out.empty() ? 0 : POLLOUT)), 0};
      waiting = waiting || !cn.pending.empty();
    }
    if (traced) tt->close(span, now_ns());
    if (!issuing && (!drain || !waiting)) return;
    if (!issuing && mode == Mode::kRun && now_ns() > until_ns + 30'000'000'000ull) {
      throw std::runtime_error("replies did not arrive within 30 s");
    }
    // Busy-polls: the client owns its CPU. A client that sleeps in poll()
    // waits for the host to wake its virtual CPU on every reply, and under
    // host CPU steal that added milliseconds to the measured p99s.
    if (::poll(pfd, kConns, 0) < 0 && errno != EINTR) {
      throw std::runtime_error("poll failed");
    }
    const uint64_t t_ready = now_ns();
    uint64_t done_before = ops;
    for (int c = 0; c < kConns; ++c) {
      if ((pfd[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& cn = conns_[c];
      const ssize_t n = ::read(cn.fd, buf, sizeof buf);
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (n < 0) {
        if (errno == EAGAIN) continue;
        throw std::runtime_error("client read failed");
      }
      cn.in.append(buf, static_cast<std::size_t>(n));
      parse(cn, t_ready);
    }
    if (recording) {
      const uint64_t t_end = now_ns();
      st.ops[traced ? 1 : 0] += ops - done_before;
      st.ns[traced ? 1 : 0] += t_end - t_iter;
    }
  }
}

// ---- the workload --------------------------------------------------------------

/// Time from spawning the server on `region` to the first GET of a preloaded
/// key that hits.
double time_to_first_hit(const Args& a, const std::string& region, Server* out) {
  const uint64_t t0 = now_ns();
  *out = spawn_server(a, region, "recover");
  const int fd = connect_to(out->port, false);
  const std::string req = "get " + key_of(0) + "\r\n";
  char buf[4096];
  for (int tries = 0; tries < 30'000; ++tries) {
    if (::write(fd, req.data(), req.size()) != static_cast<ssize_t>(req.size())) break;
    std::string in;
    while (in.size() < 5 || in.compare(in.size() - 5, 5, "END\r\n") != 0) {
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0) break;
      in.append(buf, static_cast<std::size_t>(n));
    }
    if (in.rfind("VALUE ", 0) == 0) {
      ::close(fd);
      return (now_ns() - t0) / 1e9;
    }
    ::usleep(1000);
  }
  ::close(fd);
  throw std::runtime_error("recovered server never returned a preloaded key");
}

}  // namespace

Result run_server(const Args& a) {
  Result res;
  pin_self({3});
  const std::string region = a.work_dir + "/server-ack-1k.region";
  std::vector<uint64_t> issued(kKeys, 0), acked(kKeys, 0);
  Client client(a.seed, &issued, &acked);

  // Set-up, several times: spawn on a fresh region, connect, preload every
  // key; the last server goes on to the timed window.
  std::vector<double> setup_s, env_s, preload_s;
  Server srv;
  for (int i = 0; i < kSetups; ++i) {
    kill_server(srv);
    ::unlink(region.c_str());
    std::fill(issued.begin(), issued.end(), 0);
    std::fill(acked.begin(), acked.end(), 0);
    const uint64_t t0 = now_ns();
    srv = spawn_server(a, region, "run");
    client.connect(srv.port);
    const uint64_t t1 = now_ns();
    client.pump(Client::Mode::kPreload, 0, true);
    const uint64_t t2 = now_ns();
    setup_s.push_back((t2 - t0) / 1e9);
    env_s.push_back((t1 - t0) / 1e9);
    preload_s.push_back((t2 - t1) / 1e9);
  }
  res.note(samples_note("setup_s", setup_s));
  if (!client.res.correct) {
    kill_server(srv);
    return client.res;
  }

  // The timed window.
  const int stats_fd = connect_to(srv.port, false);
  Tracer tracer;
  if (a.trace) {
    client.tt = tracer.thread();
    client.n_iter = tracer.name_id("bench.iter");
    client.n_set = tracer.name_id("server.set");
    client.n_get = tracer.name_id("server.get");
  }
  const Counters before = stats_montage(stats_fd);
  const CpuTimes cpu0 = cpu_times();
  const uint64_t start = now_ns();
  client.slices.start = start;
  // The server's threads run on other CPUs than the client: rank the slices
  // by machine-wide steal.
  client.series = std::make_unique<WindowSeries>(start, a.seconds, /*own_cpus=*/false);
  client.recording = true;
  client.pump(Client::Mode::kRun, start + static_cast<uint64_t>(a.seconds * 1e9), false);
  client.recording = false;
  const uint64_t end = now_ns();
  client.series->close(end);
  const double secs = (end - start) / 1e9;
  res.note(steal_note(cpu0, cpu_times()));
  const Counters after = stats_montage(stats_fd);
  ::close(stats_fd);

  // Sets stay in flight while the server is killed.
  client.pump(Client::Mode::kRun, now_ns() + kInflightMs * 1'000'000ull, false);
  const double rss = peak_rss_mb(srv.pid);
  kill_server(srv);
  client.disconnect();

  // Restart on copies of the crash image; check every key on each.
  const std::unordered_set<uint64_t> stale_tag = stale_tag_inserts(region);
  res.note("crash image: " + std::to_string(stale_tag.size()) +
           " inserted keys carry a header checksum stale in the tag word");
  client.stale_tag = &stale_tag;
  std::vector<double> rec_s, payloads, late, corrupt;
  for (int r = 0; r < kRecoveries; ++r) {
    const std::string copy = region + ".crash";
    sparse_copy(region, copy);
    Server rs;
    rec_s.push_back(time_to_first_hit(a, copy, &rs));
    client.connect(rs.port);
    client.pump(Client::Mode::kCheck, 0, true);
    client.disconnect();
    payloads.push_back(log_field(rs.log, "payloads"));
    late.push_back(log_field(rs.log, "late_epoch"));
    corrupt.push_back(log_field(rs.log, "corrupt"));
    kill_server(rs);
    ::unlink(copy.c_str());
  }
  ::unlink(region.c_str());
  res.note(samples_note("recover_s", rec_s) +
           "; every key of each recovered server checked against the model");

  for (const auto& n : client.res.notes) res.note(n);
  res.correct = client.res.correct;
  res.failed = client.res.failed;
  res.attempted = client.ops;
  const double bytes_reserved =
      (after.count("ralloc.superblocks_reserved") != 0
           ? after.at("ralloc.superblocks_reserved")
           : 0) *
      static_cast<double>(montage::ralloc::Ralloc::kSuperblockSize);
  if (a.trace) {
    WindowInfo wi;
    wi.seconds = secs;
    wi.ops = client.ops;
    wi.sets = client.sets;
    wi.user_bytes = client.sets * (11 + kValueBytes);
    wi.bytes_reserved = bytes_reserved;
    add_layer_metrics(res, server_delta(before, after), wi);
    add_overhead(res, client.st, 1);
    add_trace_summary(res, tracer, client.st.ops[1]);
    const std::string tpath = a.work_dir + "/server-ack-1k.spans.jsonl";
    res.note("spans written: " + std::to_string(tracer.write_spans(tpath)) + " to " +
             tpath);
    // The server recovers inside its own process: only the whole restart
    // (recover_s) and its logged counts are visible from outside.
    res.add("recover.region_open_s", 0, "s");
    res.add("recover.ralloc_s", 0, "s");
    res.add("recover.epoch_s", 0, "s");
    res.add("recover.rebuild_s", 0, "s");
    res.add("recover.payloads", median(payloads), "count");
    res.add("recover.discarded_late_epoch", median(late), "count");
    res.add("recover.quarantined_corrupt", median(corrupt), "count");
    res.add("setup.env_s", median(env_s), "s");
    res.add("setup.preload_s", median(preload_s), "s");
  } else {
    client.series->report(res, end);
    res.add("peak_rss_mb", rss, "MiB");
    res.add("space_amp", bytes_reserved / (kKeys * (11.0 + kValueBytes)), "ratio");
    res.add("setup_s", median(setup_s), "s");
    res.add("recover_s", median(rec_s), "s");
  }
  return res;
}

}  // namespace perfbench
