// Traced per-layer run of the benchmark.
//
// Calls each layer's public C++ functions from this file and records a span
// around every call: name, start, end and parent, kept in memory and written
// out at the end. A layer's self time is its span time minus its child
// spans. Three parts:
//
//  1. Campaign: re-runs runs [0, runs) of the end-to-end campaign with the
//     same seeds. Each new frame is assembled here from five
//     TvcaApp::BuildTaskTrace calls and FrameComposer::ComposeMajorFrame,
//     checked record for record against TvcaApp::BuildFrame, and simulated
//     with Platform::Run; each run's cycles and path must equal the
//     end-to-end CSV row of the same index.
//  2. Analysis: the i.i.d. gate, the Gumbel fit and the whole MBPTA
//     pipeline on 3,000-observation samples, and the sample CSV write+read.
//  3. Service: encode, frame parse, payload parse, route, cold analysis,
//     cache probe, render, decode and session append of one spta1
//     ANALYZE, in process.
//
// Usage:
//   perfbench_trace --scenarios N --seed S --runs R --csv E2E.csv
//                   --round-runs K --spans OUT.csv
// Prints one JSON object of per-layer figures on stdout; exits 1 when a
// check fails.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/campaign.hpp"
#include "analysis/sample_io.hpp"
#include "apps/scheduler.hpp"
#include "apps/tvca.hpp"
#include "common/hash.hpp"
#include "evt/block_maxima.hpp"
#include "evt/gumbel.hpp"
#include "mbpta/iid_gate.hpp"
#include "mbpta/mbpta.hpp"
#include "service/client.hpp"
#include "service/engine.hpp"
#include "service/frame_reader.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/sharded_server.hpp"
#include "sim/config.hpp"
#include "sim/platform.hpp"

namespace {

using namespace spta;
using Clock = std::chrono::steady_clock;

/// In-memory span recorder (single thread). Spans nest by scope.
class Spans {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Spans& spans, const char* name) : spans_(spans) {
      index_ = static_cast<int>(spans_.records_.size());
      spans_.records_.push_back({name, Now(), 0, spans_.open_});
      spans_.open_ = index_;
    }
    ~Scope() {
      spans_.records_[static_cast<std::size_t>(index_)].end_ns = Now();
      spans_.open_ = spans_.records_[static_cast<std::size_t>(index_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_ = 0;
  };

  /// Self time (span time minus direct children) summed per span name, ns.
  std::map<std::string, double> SelfNs() const {
    std::vector<double> self(records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      self[i] = static_cast<double>(records_[i].end_ns - records_[i].start_ns);
    }
    for (const Record& r : records_) {
      if (r.parent >= 0) {
        self[static_cast<std::size_t>(r.parent)] -=
            static_cast<double>(r.end_ns - r.start_ns);
      }
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      by_name[records_[i].name] += self[i];
    }
    return by_name;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "index,name,start_ns,end_ns,parent\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << i << ',' << r.name << ',' << r.start_ns << ',' << r.end_ns << ','
          << r.parent << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  static std::int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  std::vector<Record> records_;
  int open_ = -1;
};

struct Args {
  std::size_t scenarios = 0;
  std::uint64_t seed = 1;
  std::size_t runs = 16;
  std::size_t round_runs = 400;
  std::string csv;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--scenarios") a->scenarios = std::strtoull(v, nullptr, 10);
    else if (key == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (key == "--runs") a->runs = std::strtoull(v, nullptr, 10);
    else if (key == "--round-runs") a->round_runs = std::strtoull(v, nullptr, 10);
    else if (key == "--csv") a->csv = v;
    else if (key == "--spans") a->spans = v;
    else return false;
  }
  return argc % 2 == 1 && a->runs >= 1 && a->round_runs >= 1 &&
         !a->csv.empty() && !a->spans.empty();
}

/// i.i.d. Gumbel(1e6, 1e4) observations rounded to whole cycles, the same
/// family the load generator sends.
std::vector<mbpta::PathObservation> GumbelSample(std::uint64_t seed,
                                                 std::size_t n) {
  std::vector<mbpta::PathObservation> out(n);
  std::uint64_t state = seed;
  for (auto& o : out) {
    state = DeriveSeed(state, 1);
    const double u = (static_cast<double>(state >> 11) + 0.5) * 0x1.0p-53;
    o.time = std::round(1.0e6 - 1.0e4 * std::log(-std::log(u)));
  }
  return out;
}

int failures = 0;
void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "perfbench_trace: check failed: %s\n", what.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_trace --scenarios N --seed S --runs R "
                 "--round-runs K --csv E2E.csv --spans OUT.csv\n");
    return 2;
  }
  std::vector<mbpta::PathObservation> e2e;
  {
    std::ifstream in(args.csv);
    std::string error;
    if (!in || !analysis::TryReadSamplesCsv(in, &e2e, &error) ||
        e2e.size() < args.runs) {
      std::fprintf(stderr, "perfbench_trace: cannot use %s (%s)\n",
                   args.csv.c_str(), error.c_str());
      return 2;
    }
  }

  Spans spans;

  // --- 1. Campaign layers -------------------------------------------------
  const apps::TvcaApp app;
  analysis::CampaignConfig cc;
  cc.runs = args.runs;
  cc.master_seed = args.seed;
  cc.distinct_scenarios = args.scenarios;
  sim::Platform platform(sim::RandLeon3Config(), /*master_seed=*/0);
  apps::FrameComposer::Options compose_options;
  compose_options.dispatch_overhead_instructions =
      app.config().dispatch_overhead;
  const apps::FrameComposer composer(compose_options);

  std::unordered_map<std::uint64_t, apps::TvcaFrame> built;
  std::uint64_t frames_built = 0;
  std::uint64_t frames_reused = 0;
  std::uint64_t records_interpreted = 0;
  std::uint64_t frame_record_bytes = 0;
  std::uint64_t sim_instructions = 0;
  std::size_t frames_verified = 0;
  std::vector<analysis::RunSample> traced;
  for (std::size_t r = 0; r < args.runs; ++r) {
    const std::uint64_t seed = analysis::TvcaScenarioSeed(cc, r);
    bool fresh = false;
    sim::RunResult result;
    {
      Spans::Scope run(spans, "run");
      auto it = built.find(seed);
      if (it == built.end()) {
        fresh = true;
        Spans::Scope frame_span(spans, "frame");
        apps::TvcaFrame frame;
        frame.scenario = app.DrawScenario(seed);
        frame.path_id = frame.scenario.PathId();
        trace::Trace jobs[5];
        {
          // The five jobs of a major frame, with the seeds BuildFrame uses.
          const std::uint64_t job_seeds[5] = {
              seed, seed, DeriveSeed(seed, "x-job2"), seed,
              DeriveSeed(seed, "y-job2")};
          const apps::TvcaTask job_tasks[5] = {
              apps::TvcaTask::kSensorAcq, apps::TvcaTask::kActuatorX,
              apps::TvcaTask::kActuatorX, apps::TvcaTask::kActuatorY,
              apps::TvcaTask::kActuatorY};
          for (int j = 0; j < 5; ++j) {
            Spans::Scope interpret(spans, "trace.interpret");
            jobs[j] = app.BuildTaskTrace(job_tasks[j], job_seeds[j],
                                         frame.scenario);
          }
        }
        {
          Spans::Scope compose(spans, "apps.compose");
          frame.trace = composer.ComposeMajorFrame({
              {&jobs[0], 1, /*priority=*/1, /*minor=*/0},
              {&jobs[1], 1, 2, 0},
              {&jobs[3], 1, 3, 0},
              {&jobs[2], 1, 2, 1},
              {&jobs[4], 1, 3, 1},
          });
          frame.trace.path_signature = frame.path_id;
        }
        for (const trace::Trace& job : jobs) {
          records_interpreted += job.records.size();
        }
        frame_record_bytes +=
            frame.trace.records.size() * sizeof(trace::TraceRecord);
        ++frames_built;
        it = built.emplace(seed, std::move(frame)).first;
      } else {
        ++frames_reused;
      }
      Spans::Scope simulate(spans, "sim.run");
      result = platform.Run(it->second.trace, analysis::TvcaRunSeed(cc, r));
    }
    const apps::TvcaFrame& frame = built.at(seed);
    // Outside every span: the frame equals BuildFrame's, record for record.
    if (fresh && frames_verified < 16) {
      ++frames_verified;
      const apps::TvcaFrame reference = app.BuildFrame(seed);
      Check(reference.trace.records == frame.trace.records &&
                reference.trace.path_signature == frame.trace.path_signature &&
                reference.path_id == frame.path_id,
            "frame of run " + std::to_string(r) + " differs from BuildFrame");
    }
    Check(static_cast<double>(result.cycles) == e2e[r].time &&
              frame.path_id == e2e[r].path_id,
          "run " + std::to_string(r) + " differs from the end-to-end CSV row");
    Check(result.cycles >= result.instructions,
          "run " + std::to_string(r) + " has fewer cycles than instructions");
    sim_instructions += result.instructions;
    analysis::RunSample s;
    s.cycles = static_cast<double>(result.cycles);
    s.path_id = frame.path_id;
    traced.push_back(s);
    if (args.scenarios == 0) built.clear();  // Fresh inputs: bound memory.
  }

  // --- 2. Analysis layers -------------------------------------------------
  constexpr int kAnalyses = 12;
  for (int i = 0; i < kAnalyses; ++i) {
    const auto obs = GumbelSample(args.seed * 977 + static_cast<std::uint64_t>(i), 3000);
    std::vector<double> times;
    for (const auto& o : obs) times.push_back(o.time);
    mbpta::IidGateResult gate;
    {
      Spans::Scope s(spans, "mbpta.iid_gate");
      gate = mbpta::RunIidGate(times);
    }
    {
      Spans::Scope s(spans, "evt.fit");
      const auto maxima = evt::BlockMaxima(
          times, evt::SuggestBlockSize(times.size(), mbpta::MbptaOptions{}.min_blocks));
      const auto fit = evt::FitGumbelMle(maxima);
      Check(fit.beta > 0.0, "Gumbel fit has no scale");
    }
    Spans::Scope s(spans, "mbpta.analyze");
    const auto result = mbpta::AnalyzeSample(times);
    Check(result.curve.has_value(), "no pWCET curve on a Gumbel sample");
  }
  // A round's sample CSV, written and read back as the CLI does.
  std::vector<analysis::RunSample> round_rows;
  for (std::size_t i = 0; i < args.round_runs; ++i) {
    round_rows.push_back(traced[i % traced.size()]);
  }
  constexpr int kSampleIo = 20;
  for (int i = 0; i < kSampleIo; ++i) {
    Spans::Scope s(spans, "analysis.sample_io");
    std::ostringstream out;
    analysis::WriteSamplesCsv(out, round_rows);
    std::istringstream in(out.str());
    std::vector<mbpta::PathObservation> back;
    std::string error;
    Check(analysis::TryReadSamplesCsv(in, &back, &error) &&
              back.size() == round_rows.size(),
          "sample CSV round trip");
  }

  // --- 3. Service layers --------------------------------------------------
  service::ShardedServerOptions fleet_options;
  fleet_options.shards = 2;
  const service::ShardedServer fleet(fleet_options);
  service::AnalysisEngine engine;
  service::SessionManager sessions;
  constexpr int kRequests = 40;
  std::uint64_t request_bytes = 0;
  for (int i = 0; i < kRequests; ++i) {
    const auto obs = GumbelSample(args.seed * 7919 + static_cast<std::uint64_t>(i), 3000);
    std::string wire;
    {
      Spans::Scope s(spans, "service.encode");
      service::Request request;
      request.kind = service::RequestKind::kAnalyze;
      request.args.SetUint("count", obs.size());
      request.payload = service::EncodeSamplePayload(obs);
      service::AppendRequestFrame(request, &wire);
    }
    request_bytes += wire.size();
    service::Request parsed;
    std::string body;
    std::vector<mbpta::PathObservation> received;
    {
      Spans::Scope s(spans, "service.parse");
      service::FrameReassembler reassembler;
      reassembler.Feed(wire);
      std::string type;
      std::string error;
      Check(reassembler.Next(&type, &body, &error) ==
                    service::FrameReassembler::Result::kFrame &&
                service::BuildRequest(type, body, &parsed, &error),
            "request frame parse");
    }
    {
      // The sample rows, parsed only on the cold and session paths.
      Spans::Scope s(spans, "service.payload_parse");
      std::string error;
      std::istringstream payload(parsed.payload);
      Check(analysis::TryReadSamplesCsv(payload, &received, &error) &&
                received.size() == obs.size(),
            "request payload parse");
    }
    {
      Spans::Scope s(spans, "service.route");
      const std::size_t shard =
          fleet.ShardFor(service::ShardedServer::RouteDigest(parsed, body));
      Check(shard < 2, "route to a live shard");
    }
    const auto config = service::AnalysisConfig::FromArgs(parsed.args);
    service::AnalysisOutcome cold;
    {
      Spans::Scope s(spans, "service.engine_cold");
      std::string error;
      Check(engine.Analyze(received, config, &cold, &error) && !cold.cache_hit,
            "cold analysis");
    }
    service::AnalysisOutcome warm;
    {
      Spans::Scope s(spans, "service.cache_probe");
      Check(engine.TryServeCached(received, config, &warm) && warm.cache_hit,
            "cache probe hits");
    }
    std::string reply;
    {
      Spans::Scope s(spans, "service.render");
      service::AppendResponseFrame(
          service::OkResponse(warm.result, warm.report), &reply);
    }
    {
      Spans::Scope s(spans, "service.decode");
      std::istringstream in(reply);
      service::Response response;
      std::string error;
      Check(service::ReadResponse(in, &response, &error) ==
                    service::ReadStatus::kOk &&
                response.ok,
            "response decode");
    }
    // One session of twelve 250-observation appends per request.
    const std::string name = "s" + std::to_string(i);
    std::string error;
    Check(sessions.Open(name, &error), "session open");
    for (std::size_t c = 0; c < obs.size(); c += 250) {
      Spans::Scope s(spans, "service.session_append");
      service::SessionStatus status;
      Check(sessions.Append(name,
                            std::span<const mbpta::PathObservation>(
                                obs.data() + c, 250),
                            &status, &error),
            "session append");
    }
    Check(sessions.Close(name, &error), "session close");
  }

  if (!spans.Write(args.spans)) {
    std::fprintf(stderr, "perfbench_trace: cannot write %s\n",
                 args.spans.c_str());
    return 2;
  }
  auto self = spans.SelfNs();
  const double runs = static_cast<double>(args.runs);
  const double ms = 1e-6;
  const double us = 1e-3;
  std::printf(
      "{\"runs\": %zu, \"frames_built\": %llu, \"frames_reused\": %llu, "
      "\"frames_verified\": %zu",
      args.runs, static_cast<unsigned long long>(frames_built),
      static_cast<unsigned long long>(frames_reused), frames_verified);
  std::printf(", \"traced_run_ms\": %.6f",
              (self["run"] + self["frame"] + self["trace.interpret"] +
               self["apps.compose"] + self["sim.run"]) *
                  ms / runs);
  std::printf(", \"trace.interpret_ms_per_run\": %.6f",
              self["trace.interpret"] * ms / runs);
  std::printf(", \"trace.interpret_ns_per_record\": %.6f",
              records_interpreted > 0
                  ? self["trace.interpret"] /
                        static_cast<double>(records_interpreted)
                  : 0.0);
  std::printf(", \"apps.compose_ms_per_run\": %.6f",
              self["apps.compose"] * ms / runs);
  std::printf(", \"apps.frame_bytes_per_run\": %.1f",
              static_cast<double>(frame_record_bytes) / runs);
  std::printf(", \"sim.simulate_ms_per_run\": %.6f",
              self["sim.run"] * ms / runs);
  std::printf(", \"sim.host_ns_per_sim_instruction\": %.6f",
              self["sim.run"] / static_cast<double>(sim_instructions));
  std::printf(", \"analysis.frame_reuse_ratio\": %.6f",
              static_cast<double>(frames_reused) / runs);
  std::printf(", \"analysis.sample_io_ms\": %.6f",
              self["analysis.sample_io"] * ms / kSampleIo);
  std::printf(", \"mbpta.iid_gate_ms\": %.6f",
              self["mbpta.iid_gate"] * ms / kAnalyses);
  std::printf(", \"evt.fit_ms\": %.6f", self["evt.fit"] * ms / kAnalyses);
  std::printf(", \"mbpta.analyze_ms\": %.6f",
              self["mbpta.analyze"] * ms / kAnalyses);
  std::printf(", \"service.encode_us_per_request\": %.4f",
              self["service.encode"] * us / kRequests);
  std::printf(", \"service.request_bytes_mean\": %.1f",
              static_cast<double>(request_bytes) / kRequests);
  std::printf(", \"service.parse_us_per_request\": %.4f",
              self["service.parse"] * us / kRequests);
  std::printf(", \"service.payload_parse_us_per_request\": %.4f",
              self["service.payload_parse"] * us / kRequests);
  std::printf(", \"service.route_us_per_request\": %.4f",
              self["service.route"] * us / kRequests);
  std::printf(", \"service.cache_probe_us\": %.4f",
              self["service.cache_probe"] * us / kRequests);
  std::printf(", \"service.render_us_per_response\": %.4f",
              self["service.render"] * us / kRequests);
  std::printf(", \"service.decode_us_per_response\": %.4f",
              self["service.decode"] * us / kRequests);
  std::printf(", \"service.engine_cold_ms\": %.6f",
              self["service.engine_cold"] * ms / kRequests);
  std::printf(", \"service.session_append_us\": %.4f",
              self["service.session_append"] * us / (kRequests * 12));
  std::printf(", \"checks_failed\": %d}\n", failures);
  return failures == 0 ? 0 : 1;
}
