// Closed-loop spta1 load generator for the serve phase of the benchmark.
//
// Speaks the spta1 wire format itself (header line `spta1 VERB N\n`, then
// N body bytes; the body's first line holds key=value args) and links no
// repo library, so a change to the service's C++ API cannot change what
// this program measures.
//
// Each of --connections threads owns one TCP connection and sends its next
// request only after the previous reply arrived (closed loop), for
// --seconds and at least kMinRounds rounds. A round on one connection is 51
// requests, made of the three client shapes that docs/SERVICE.md documents
// for spta_serve:
//   OPEN s; 12 x { cold ANALYZE of a new sample (`spta_client analyze`);
//   APPEND chunk i of s (`spta_client session`, 3,000 observations in
//   its default chunks of 250); warm ANALYZE re-sending that cold sample
//   (a resubmission, answered from the cache) }; ANALYZE session=s (the
//   session's first analysis, a miss); 12 x ANALYZE session=s (the
//   resident-service re-analysis by name, as in
//   bench/micro_service_loadgen.cpp); CLOSE s.
// The session's 12 APPENDs set the unit; every other measured kind gets as
// many requests per round, so each kind's p50 rests on the same count. The
// repo records no traffic ratio between the shapes; equal counts are a
// choice.
// Samples are 3,000 integer cycle counts drawn i.i.d. from a Gumbel(mu,
// beta) distribution from --seed, so the analytic pWCET is known.
//
// Prints one JSON object on stdout with the latencies per request kind, the
// request rate, the server's CPU time over the measured window, and the
// output checks (reply status, cache= field, server hit/miss counters,
// pWCET against the analytic quantile). Exit status is 0 when the run
// completed; the checks are judged by the caller from the JSON.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

constexpr double kMu = 1.0e6;
constexpr double kBeta = 1.0e4;
constexpr int kSampleSize = 3000;
// APPENDs per session; also the count of each other measured kind per round.
constexpr int kChunks = 12;
// Measured rounds per connection, at the least: with 2 connections, 1,008
// requests of each kind, so every p99 has ten samples beyond it however
// slow the host is.
constexpr int kMinRounds = 42;
constexpr double kProb = 1e-12;
// Relative distance allowed between a usable served pWCET and the analytic
// quantile at kProb. The Gumbel fit on 30 block maxima extrapolated to
// 1e-12 misses it by 2.7% rms; 25% lies beyond any fit seen (README.md).
constexpr double kQuantileTolerance = 0.25;

using Clock = std::chrono::steady_clock;

struct Options {
  int port = 0;
  std::uint64_t seed = 1;
  double seconds = 5.0;
  int connections = 2;
  int server_pid = 0;
  std::string check_dir;
  int check_samples = 0;
};

std::uint64_t SplitMix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Sample `index` of connection `conn`: a pure function of (seed, conn,
/// index), so the same seed gives the same inputs.
std::string MakeSample(std::uint64_t seed, int conn, std::uint64_t index) {
  std::uint64_t state = seed * 0x100000001b3ull ^
                        (static_cast<std::uint64_t>(conn) << 48) ^ index;
  SplitMix(state);
  std::string out;
  out.reserve(kSampleSize * 9);
  char buf[32];
  for (int i = 0; i < kSampleSize; ++i) {
    const double u =
        (static_cast<double>(SplitMix(state) >> 11) + 0.5) * 0x1.0p-53;
    const double x = kMu - kBeta * std::log(-std::log(u));
    const int n = std::snprintf(buf, sizeof buf, "%lld\n",
                                static_cast<long long>(std::llround(x)));
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

double AnalyticQuantile(double p) {
  return kMu - kBeta * std::log(-std::log1p(-p));
}

std::map<std::string, std::string> ParseArgs(const std::string& body) {
  std::map<std::string, std::string> args;
  const std::string line = body.substr(0, body.find('\n'));
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq != std::string::npos) args[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return args;
}

class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// Sends one request and reads its reply. False on transport failure.
  bool Call(const std::string& verb, const std::string& body,
            std::string* status, std::string* reply) {
    std::string frame = "spta1 " + verb + " " + std::to_string(body.size()) +
                        "\n";
    frame += body;
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    std::size_t eol;
    while ((eol = buffer_.find('\n')) == std::string::npos) {
      if (!Fill()) return false;
    }
    std::istringstream header(buffer_.substr(0, eol));
    std::string magic;
    std::size_t nbytes = 0;
    if (!(header >> magic >> *status >> nbytes) || magic != "spta1") {
      return false;
    }
    buffer_.erase(0, eol + 1);
    while (buffer_.size() < nbytes) {
      if (!Fill()) return false;
    }
    reply->assign(buffer_, 0, nbytes);
    buffer_.erase(0, nbytes);
    return true;
  }

 private:
  bool Fill() {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

enum Kind { kCold, kWarm, kAppend, kSessionFirst, kSessionRepeat, kOther,
            kKinds };
const char* const kKindNames[kKinds] = {"cold",          "warm",
                                        "append",        "session_first",
                                        "session_repeat", "other"};

struct WorkerResult {
  std::vector<double> latency_ms[kKinds];
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t window_requests = 0;
  std::uint64_t own_hits = 0;
  std::uint64_t own_misses = 0;
  std::uint64_t cache_field_mismatches = 0;
  std::uint64_t quantile_checked = 0;
  std::uint64_t quantile_outside = 0;
  std::uint64_t unusable = 0;
  double worst_rel_dev = 0.0;
  std::string first_error;
};

class Worker {
 public:
  Worker(const Options& options, int index, std::barrier<>& ready,
         std::barrier<>& go, const std::atomic<std::int64_t>& deadline_ns)
      : options_(options),
        index_(index),
        ready_(ready),
        go_(go),
        deadline_ns_(deadline_ns),
        conn_(options.port) {}

  void Run() {
    if (!conn_.ok()) {
      Fail("connect failed");
      ready_.arrive_and_drop();
      go_.arrive_and_drop();
      return;
    }
    Round(/*timed=*/false);  // Warm-up: starts the caches and the memo.
    ready_.arrive_and_wait();
    go_.arrive_and_wait();
    const auto deadline = Clock::time_point(
        std::chrono::nanoseconds(deadline_ns_.load()));
    for (int r = 0; !broken_ && (r < kMinRounds || Clock::now() < deadline);
         ++r) {
      Round(/*timed=*/true);
    }
  }

  WorkerResult& result() { return result_; }

 private:
  void Fail(const std::string& what) {
    ++result_.failed;
    if (result_.first_error.empty()) result_.first_error = what;
  }

  /// Sends one request; records latency under `kind` when timed. Returns
  /// the reply body, or nullopt-like empty status on failure.
  bool Send(Kind kind, const std::string& verb, const std::string& body,
            bool timed, std::string* reply) {
    if (broken_) return false;
    ++result_.attempted;
    std::string status;
    const auto t0 = Clock::now();
    const bool ok = conn_.Call(verb, body, &status, reply);
    const auto t1 = Clock::now();
    if (!ok) {
      broken_ = true;
      Fail(verb + ": transport failure");
      return false;
    }
    if (status != "OK") {
      Fail(verb + ": " + status + " " + reply->substr(0, 200));
      return false;
    }
    if (timed) {
      ++result_.window_requests;
      result_.latency_ms[kind].push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    return true;
  }

  void CheckAnalyze(const std::string& reply, bool expect_hit) {
    const auto args = ParseArgs(reply);
    const auto cache = args.find("cache");
    if (cache == args.end() ||
        cache->second != (expect_hit ? "hit" : "miss")) {
      ++result_.cache_field_mismatches;
    }
    if (expect_hit) {
      ++result_.own_hits;
    } else {
      ++result_.own_misses;
    }
    const auto usable = args.find("usable");
    const auto pwcet = args.find("pwcet");
    if (usable == args.end() || usable->second != "1" || pwcet == args.end()) {
      ++result_.unusable;
      return;
    }
    const double q = AnalyticQuantile(kProb);
    const double dev = std::fabs(std::strtod(pwcet->second.c_str(), nullptr) - q) / q;
    ++result_.quantile_checked;
    result_.worst_rel_dev = std::max(result_.worst_rel_dev, dev);
    if (!(dev <= kQuantileTolerance)) ++result_.quantile_outside;
  }

  void KeepForCheck(const std::string& sample, const std::string& reply) {
    if (index_ != 0 || kept_ >= options_.check_samples ||
        options_.check_dir.empty()) {
      return;
    }
    const std::string base =
        options_.check_dir + "/check_" + std::to_string(kept_++);
    std::ofstream(base + ".csv") << "cycles\n" << sample;
    std::ofstream(base + ".reply") << reply;
  }

  void Round(bool timed) {
    const std::string session =
        "c" + std::to_string(index_) + "r" + std::to_string(round_++);
    const std::string session_sample = MakeSample(options_.seed, index_, next_++);
    std::vector<std::string> chunks;
    std::size_t pos = 0;
    for (int c = 0; c < kChunks; ++c) {
      std::size_t end = pos;
      for (int line = 0; line < kSampleSize / kChunks; ++line) {
        end = session_sample.find('\n', end) + 1;
      }
      chunks.push_back(session_sample.substr(pos, end - pos));
      pos = end;
    }
    const std::string by_name = "session=" + session + "\n";
    std::string reply;
    Send(kOther, "OPEN", by_name, timed, &reply);
    for (int i = 0; i < kChunks; ++i) {
      const std::string sample = MakeSample(options_.seed, index_, next_++);
      const std::string body =
          "count=" + std::to_string(kSampleSize) + "\n" + sample;
      if (Send(kCold, "ANALYZE", body, timed, &reply)) {
        CheckAnalyze(reply, /*expect_hit=*/false);
        if (timed) KeepForCheck(sample, reply);
      }
      Send(kAppend, "APPEND",
           "count=" + std::to_string(kSampleSize / kChunks) +
               " session=" + session + "\n" + chunks[static_cast<std::size_t>(i)],
           timed, &reply);
      if (Send(kWarm, "ANALYZE", body, timed, &reply)) {
        CheckAnalyze(reply, /*expect_hit=*/true);
      }
    }
    if (Send(kSessionFirst, "ANALYZE", by_name, timed, &reply)) {
      CheckAnalyze(reply, /*expect_hit=*/false);
    }
    for (int i = 0; i < kChunks; ++i) {
      if (Send(kSessionRepeat, "ANALYZE", by_name, timed, &reply)) {
        CheckAnalyze(reply, /*expect_hit=*/true);
      }
    }
    Send(kOther, "CLOSE", by_name, timed, &reply);
  }

  const Options& options_;
  const int index_;
  std::barrier<>& ready_;
  std::barrier<>& go_;
  const std::atomic<std::int64_t>& deadline_ns_;
  Connection conn_;
  WorkerResult result_;
  bool broken_ = false;
  std::uint64_t round_ = 0;
  std::uint64_t next_ = 0;
  int kept_ = 0;
};

/// utime + stime of `pid` in seconds, from /proc/<pid>/stat; -1 if absent.
double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = 0;
  double stime = 0;
  // Fields after "comm": state is field 3; utime and stime are 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--port") o->port = std::atoi(value);
    else if (key == "--seed") o->seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") o->seconds = std::strtod(value, nullptr);
    else if (key == "--connections") o->connections = std::atoi(value);
    else if (key == "--server-pid") o->server_pid = std::atoi(value);
    else if (key == "--check-dir") o->check_dir = value;
    else if (key == "--check-samples") o->check_samples = std::atoi(value);
    else return false;
  }
  return argc % 2 == 1 && o->port > 0 && o->connections >= 1 &&
         o->connections <= 64 && o->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench_load --port P [--seed S] [--seconds T] "
                 "[--connections C] [--server-pid PID] [--check-dir DIR "
                 "--check-samples K]\n");
    return 2;
  }
  std::atomic<std::int64_t> deadline_ns{0};
  std::barrier<> ready(options.connections + 1);
  std::barrier<> go(options.connections + 1);
  std::vector<std::unique_ptr<Worker>> workers;
  for (int c = 0; c < options.connections; ++c) {
    workers.push_back(
        std::make_unique<Worker>(options, c, ready, go, deadline_ns));
  }
  std::vector<std::thread> threads;
  for (auto& w : workers) threads.emplace_back([&w] { w->Run(); });
  // Every connection has finished its warm-up round; the measured window
  // starts now for all of them at once.
  ready.arrive_and_wait();
  const double cpu_start = ProcessCpuSeconds(options.server_pid);
  const Clock::time_point window_start = Clock::now();
  deadline_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    (window_start +
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds)))
                        .time_since_epoch())
                    .count();
  go.arrive_and_wait();
  for (auto& t : threads) t.join();
  const double window_s =
      std::chrono::duration<double>(Clock::now() - window_start).count();
  const double cpu_s = ProcessCpuSeconds(options.server_pid) - cpu_start;

  WorkerResult total;
  for (auto& w : workers) {
    WorkerResult& r = w->result();
    for (int k = 0; k < kKinds; ++k) {
      total.latency_ms[k].insert(total.latency_ms[k].end(),
                                 r.latency_ms[k].begin(),
                                 r.latency_ms[k].end());
    }
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.window_requests += r.window_requests;
    total.own_hits += r.own_hits;
    total.own_misses += r.own_misses;
    total.cache_field_mismatches += r.cache_field_mismatches;
    total.quantile_checked += r.quantile_checked;
    total.quantile_outside += r.quantile_outside;
    total.unusable += r.unusable;
    total.worst_rel_dev = std::max(total.worst_rel_dev, r.worst_rel_dev);
    if (total.first_error.empty()) total.first_error = r.first_error;
  }

  // The server's own counters, read after every reply arrived.
  std::map<std::string, std::string> metrics;
  {
    Connection conn(options.port);
    std::string status;
    std::string reply;
    if (conn.ok() && conn.Call("METRICS", "", &status, &reply) &&
        status == "OK") {
      metrics = ParseArgs(reply);
    } else {
      ++total.failed;
      if (total.first_error.empty()) total.first_error = "METRICS failed";
    }
  }
  const auto metric = [&](const char* key) {
    const auto it = metrics.find(key);
    return it == metrics.end() ? std::string("-1") : it->second;
  };

  std::printf("{\"attempted\": %llu, \"failed\": %llu",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed));
  std::printf(", \"first_error\": \"%s\"",
              total.first_error.substr(0, 120).c_str());
  std::printf(", \"window_s\": %.6f, \"window_requests\": %llu", window_s,
              static_cast<unsigned long long>(total.window_requests));
  std::printf(", \"server_cpu_s\": %.4f", cpu_s);
  for (int k = 0; k < kKinds; ++k) {
    std::printf(", \"%s\": {\"n\": %zu, \"p50_ms\": %.6f, \"p99_ms\": %.6f}",
                kKindNames[k], total.latency_ms[k].size(),
                Percentile(total.latency_ms[k], 0.50),
                Percentile(total.latency_ms[k], 0.99));
  }
  std::printf(
      ", \"own_hits\": %llu, \"own_misses\": %llu, \"cache_field_mismatches\":"
      " %llu",
      static_cast<unsigned long long>(total.own_hits),
      static_cast<unsigned long long>(total.own_misses),
      static_cast<unsigned long long>(total.cache_field_mismatches));
  std::printf(
      ", \"server_cache_hits\": %s, \"server_memo_hits\": %s, "
      "\"server_cache_misses\": %s, \"server_analyze_requests\": %s, "
      "\"server_errors\": %s",
      metric("cache_hits").c_str(), metric("fleet_memo_hits").c_str(),
      metric("cache_misses").c_str(), metric("requests_ANALYZE").c_str(),
      metric("errors_total").c_str());
  std::printf(
      ", \"quantile_checked\": %llu, \"quantile_outside\": %llu, "
      "\"unusable\": %llu, \"worst_rel_dev\": %.6f, \"tolerance\": %.3f, "
      "\"analytic_pwcet\": %.3f}\n",
      static_cast<unsigned long long>(total.quantile_checked),
      static_cast<unsigned long long>(total.quantile_outside),
      static_cast<unsigned long long>(total.unusable), total.worst_rel_dev,
      kQuantileTolerance, AnalyticQuantile(kProb));
  return 0;
}
