// spta_serve subsystem battery: protocol framing, streaming session
// lifecycle in pipe mode, content-addressed result caching with LRU
// eviction, backpressure and deadline rejection, graceful drain, and the
// golden guarantee that a served pWCET quantile is bit-identical to the
// batch pipeline's on the same campaign.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign.hpp"
#include "analysis/parallel_campaign.hpp"
#include "analysis/sample_io.hpp"
#include "apps/tvca.hpp"
#include "common/hash.hpp"
#include "mbpta/convergence.hpp"
#include "mbpta/mbpta.hpp"
#include "service/client.hpp"
#include "service/convergence_tracker.hpp"
#include "service/engine.hpp"
#include "service/protocol.hpp"
#include "service/result_cache.hpp"
#include "service/server.hpp"
#include "sim/config.hpp"
#include "trace/record.hpp"

namespace spta {
namespace {

// Deterministic pseudo-random execution times with enough jitter for the
// EVT fit: uniform-ish in [base, base + spread).
std::vector<mbpta::PathObservation> SyntheticSample(std::size_t n,
                                                    std::uint64_t seed,
                                                    double base = 10000.0,
                                                    double spread = 500.0) {
  std::vector<mbpta::PathObservation> obs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = Mix64(HashCombine(seed, i));
    obs[i].time =
        base + spread * (static_cast<double>(bits >> 11) * 0x1.0p-53);
    obs[i].path_id = 0;
  }
  return obs;
}

std::vector<double> TimesOf(const std::vector<mbpta::PathObservation>& obs) {
  std::vector<double> times;
  times.reserve(obs.size());
  for (const auto& o : obs) times.push_back(o.time);
  return times;
}

// Runs a scripted request stream through a server and reaps the ordered
// responses (pipe mode: exactly what `spta_serve --pipe` does).
std::vector<service::Response> RunScript(
    service::Server& server, const std::vector<service::Request>& script) {
  std::stringstream request_stream;
  for (const auto& request : script) {
    EXPECT_TRUE(service::WriteRequest(request_stream, request));
  }
  std::stringstream response_stream;
  server.ServeStream(request_stream, response_stream);
  std::vector<service::Response> responses;
  service::Response response;
  std::string error;
  while (service::ReadResponse(response_stream, &response, &error) ==
         service::ReadStatus::kOk) {
    responses.push_back(response);
  }
  return responses;
}

service::Request MakeRequest(service::RequestKind kind) {
  service::Request request;
  request.kind = kind;
  return request;
}

service::Request AnalyzeInlineRequest(
    const std::vector<mbpta::PathObservation>& obs, service::Args args = {}) {
  service::Request request;
  request.kind = service::RequestKind::kAnalyze;
  request.args = std::move(args);
  request.payload = service::EncodeSamplePayload(obs);
  return request;
}

TEST(ProtocolTest, RequestRoundTripsThroughFrame) {
  service::Request request;
  request.kind = service::RequestKind::kAppend;
  request.args.Set("session", "s1");
  request.args.SetUint("count", 2);
  request.payload = "100.5\n200.25,3\n";

  std::stringstream wire;
  ASSERT_TRUE(service::WriteRequest(wire, request));

  service::Request decoded;
  std::string error;
  ASSERT_EQ(service::ReadRequest(wire, &decoded, &error),
            service::ReadStatus::kOk);
  EXPECT_EQ(decoded.kind, service::RequestKind::kAppend);
  EXPECT_EQ(decoded.args.GetString("session"), "s1");
  EXPECT_EQ(decoded.args.GetUint("count", 0), 2u);
  EXPECT_EQ(decoded.payload, request.payload);

  // And a second frame on the same stream stays framed.
  service::Response response = service::OkResponse();
  response.args.SetDouble("pwcet", 12345.6789);
  ASSERT_TRUE(service::WriteResponse(wire, response));
  service::Response decoded_response;
  ASSERT_EQ(service::ReadResponse(wire, &decoded_response, &error),
            service::ReadStatus::kOk);
  EXPECT_TRUE(decoded_response.ok);
  EXPECT_DOUBLE_EQ(decoded_response.args.GetDouble("pwcet", 0.0), 12345.6789);
}

TEST(ProtocolTest, MalformedFramesAreReportedNotFatal) {
  std::istringstream garbage("not a frame\n");
  service::Request request;
  std::string error;
  EXPECT_EQ(service::ReadRequest(garbage, &request, &error),
            service::ReadStatus::kMalformed);
  EXPECT_NE(error.find("bad frame header"), std::string::npos);

  std::istringstream truncated("spta1 PING 50\nshort");
  EXPECT_EQ(service::ReadRequest(truncated, &request, &error),
            service::ReadStatus::kMalformed);
  EXPECT_NE(error.find("truncated"), std::string::npos);

  std::istringstream eof("");
  EXPECT_EQ(service::ReadRequest(eof, &request, &error),
            service::ReadStatus::kEof);
}

TEST(ProtocolTest, DoubleEncodingRoundTripsBitExactly) {
  const double values[] = {1.0 / 3.0, 1e-12, 123456789.123456789,
                           0x1.fffffffffffffp+1023};
  for (const double v : values) {
    const std::string text = service::EncodeDouble(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

TEST(SampleIoTest, TryReadRejectsNonFiniteAndNegative) {
  std::vector<mbpta::PathObservation> out;
  std::string error;

  std::istringstream nan_in("cycles,path_id\n100\nnan\n");
  EXPECT_FALSE(analysis::TryReadSamplesCsv(nan_in, &out, &error));
  EXPECT_NE(error.find("non-finite"), std::string::npos);
  EXPECT_TRUE(out.empty());

  std::istringstream inf_in("100\ninf\n");
  EXPECT_FALSE(analysis::TryReadSamplesCsv(inf_in, &out, &error));
  EXPECT_NE(error.find("non-finite"), std::string::npos);

  std::istringstream neg_in("100\n-5\n");
  EXPECT_FALSE(analysis::TryReadSamplesCsv(neg_in, &out, &error));
  EXPECT_NE(error.find("negative execution time"), std::string::npos);

  std::istringstream bad_path("100,abc\n");
  EXPECT_FALSE(analysis::TryReadSamplesCsv(bad_path, &out, &error));
  EXPECT_NE(error.find("bad path id"), std::string::npos);

  std::istringstream good("cycles,path_id\n# comment\n100,1\n200\n");
  EXPECT_TRUE(analysis::TryReadSamplesCsv(good, &out, &error));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].path_id, 1u);
  EXPECT_EQ(out[1].time, 200.0);
}

TEST(SampleIoDeathTest, AbortingReaderRejectsNaN) {
  std::istringstream in("100\nnan\n");
  EXPECT_DEATH(analysis::ReadSamplesCsv(in), "non-finite execution time");
}

TEST(ResultCacheTest, LruEvictionAtCapacity) {
  service::ResultCache cache(2);
  cache.Insert(1, 10, "one");
  cache.Insert(2, 20, "two");
  ASSERT_TRUE(cache.Lookup(1, 10).has_value());  // 1 is now most-recent
  cache.Insert(3, 30, "three");                  // evicts 2 (LRU)

  EXPECT_FALSE(cache.Lookup(2, 20).has_value());
  EXPECT_EQ(cache.Lookup(1, 10).value_or(""), "one");
  EXPECT_EQ(cache.Lookup(3, 30).value_or(""), "three");

  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_NEAR(stats.HitRatio(), 0.75, 1e-12);
}

TEST(ResultCacheTest, KeyCollisionIsDetectedNotServed) {
  service::ResultCache cache(4);
  cache.Insert(1, 10, "first");

  // Same 64-bit key, different verifier: a colliding request must never
  // receive the other request's cached result.
  EXPECT_FALSE(cache.Lookup(1, 99).has_value());
  EXPECT_FALSE(cache.LookupIfPresent(1, 99).has_value());
  auto stats = cache.stats();
  EXPECT_EQ(stats.collisions, 1u);  // LookupIfPresent does not account
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // Re-insertion under the colliding key replaces the entry (latest
  // wins); the original verifier then misses.
  cache.Insert(1, 99, "second");
  EXPECT_EQ(cache.Lookup(1, 99).value_or(""), "second");
  EXPECT_FALSE(cache.Lookup(1, 10).has_value());
  stats = cache.stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.collisions, 2u);
}

TEST(AnalysisVerifierTest, IndependentOfAnalysisKey) {
  const auto obs = SyntheticSample(64, 1);
  service::AnalysisConfig config;
  EXPECT_NE(service::AnalysisVerifier(obs, config),
            service::AnalysisKey(obs, config));

  auto perturbed = obs;
  perturbed[10].time += 1e-9;
  EXPECT_NE(service::AnalysisVerifier(perturbed, config),
            service::AnalysisVerifier(obs, config));
  EXPECT_EQ(service::AnalysisVerifier(obs, config),
            service::AnalysisVerifier(obs, config));  // deterministic
}

TEST(AnalysisKeyTest, SensitiveToSamplesAndConfig) {
  const auto obs = SyntheticSample(64, 1);
  service::AnalysisConfig config;
  const std::uint64_t base = service::AnalysisKey(obs, config);

  auto perturbed = obs;
  perturbed[10].time += 1e-9;
  EXPECT_NE(service::AnalysisKey(perturbed, config), base);

  auto path_changed = obs;
  path_changed[10].path_id = 7;
  EXPECT_NE(service::AnalysisKey(path_changed, config), base);

  service::AnalysisConfig other = config;
  other.prob = 1e-9;
  EXPECT_NE(service::AnalysisKey(obs, other), base);

  EXPECT_EQ(service::AnalysisKey(obs, config), base);  // deterministic
}

// One hostile request must get an ERR, never abort the shared daemon:
// every SPTA_REQUIRE reachable from client-controlled sample sizes and
// analysis options has to be caught by the engine's validation first.
TEST(ServerPipeTest, HostileAnalyzeParametersGetErrNotAbort) {
  service::Server server{service::ServerOptions{}};

  service::Args tiny;  // 3 samples reach the i.i.d. gate's n >= 4 floor
  tiny.SetUint("min_blocks", 1);
  service::Args lags_too_large;  // default lags=20 vs a 10-sample payload
  lags_too_large.SetUint("min_blocks", 1);
  service::Args lags_zero;
  lags_zero.SetUint("lags", 0);
  service::Args two_blocks;  // 120/60 = 2 complete blocks < 3
  two_blocks.SetUint("block_size", 60);
  service::Args per_path_floor;  // path floor 4 <= default lags 20
  per_path_floor.Set("per_path", "1");
  per_path_floor.SetUint("min_blocks", 4);
  per_path_floor.SetUint("min_path_samples", 4);

  const auto responses = RunScript(
      server, {AnalyzeInlineRequest(SyntheticSample(3, 1), tiny),
               AnalyzeInlineRequest(SyntheticSample(10, 2), lags_too_large),
               AnalyzeInlineRequest(SyntheticSample(120, 3), lags_zero),
               AnalyzeInlineRequest(SyntheticSample(120, 4), two_blocks),
               AnalyzeInlineRequest(SyntheticSample(120, 5), per_path_floor),
               MakeRequest(service::RequestKind::kPing),
               MakeRequest(service::RequestKind::kShutdown)});
  ASSERT_EQ(responses.size(), 7u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_NE(responses[0].payload.find("too small"), std::string::npos);
  EXPECT_FALSE(responses[1].ok);
  EXPECT_NE(responses[1].payload.find("lags"), std::string::npos);
  EXPECT_FALSE(responses[2].ok);
  EXPECT_NE(responses[2].payload.find("lags"), std::string::npos);
  EXPECT_FALSE(responses[3].ok);
  EXPECT_NE(responses[3].payload.find("blocks"), std::string::npos);
  EXPECT_FALSE(responses[4].ok);
  EXPECT_NE(responses[4].payload.find("per-path"), std::string::npos);
  // The daemon is still alive and answering after all of the above.
  EXPECT_TRUE(responses[5].ok);
  EXPECT_TRUE(responses[6].ok);
}

TEST(ConvergenceTrackerTest, MatchesBatchCheckConvergenceAnyChunking) {
  const auto obs = SyntheticSample(1100, 42);
  const auto times = TimesOf(obs);
  mbpta::ConvergenceOptions options;
  options.initial_runs = 200;
  options.step_runs = 150;
  const auto batch = mbpta::CheckConvergence(times, options);

  for (const std::size_t chunk : {1100ul, 250ul, 37ul}) {
    service::ConvergenceTracker tracker(options);
    std::vector<double> fed;
    for (std::size_t offset = 0; offset < times.size(); offset += chunk) {
      const std::size_t n = std::min(chunk, times.size() - offset);
      fed.insert(fed.end(), times.begin() + offset,
                 times.begin() + offset + n);
      tracker.Update(fed);
    }
    EXPECT_EQ(tracker.converged(), batch.converged);
    EXPECT_EQ(tracker.runs_required(), batch.runs_required);
    ASSERT_EQ(tracker.points().size(), batch.points.size());
    for (std::size_t i = 0; i < batch.points.size(); ++i) {
      EXPECT_EQ(tracker.points()[i].runs, batch.points[i].runs);
      EXPECT_EQ(tracker.points()[i].pwcet, batch.points[i].pwcet);
      EXPECT_EQ(tracker.points()[i].rel_delta, batch.points[i].rel_delta);
    }
  }
}

TEST(ServerPipeTest, SessionLifecycleEndToEnd) {
  service::ServerOptions options;
  options.workers = 2;
  options.convergence.initial_runs = 200;
  options.convergence.step_runs = 100;
  service::Server server(options);

  const auto obs = SyntheticSample(600, 7);

  std::vector<service::Request> script;
  script.push_back(MakeRequest(service::RequestKind::kPing));
  {
    service::Request open = MakeRequest(service::RequestKind::kOpen);
    open.args.Set("session", "sat1");
    script.push_back(open);
  }
  for (std::size_t offset = 0; offset < obs.size(); offset += 200) {
    service::Request append = MakeRequest(service::RequestKind::kAppend);
    append.args.Set("session", "sat1");
    append.args.SetUint("count", 200);
    append.payload = service::EncodeSamplePayload(
        std::vector<mbpta::PathObservation>(obs.begin() + offset,
                                            obs.begin() + offset + 200));
    script.push_back(append);
  }
  {
    service::Request status = MakeRequest(service::RequestKind::kStatus);
    status.args.Set("session", "sat1");
    script.push_back(status);
  }
  {
    service::Request analyze = MakeRequest(service::RequestKind::kAnalyze);
    analyze.args.Set("session", "sat1");
    analyze.args.Set("require_iid", "0");
    script.push_back(analyze);
  }
  {
    service::Request close = MakeRequest(service::RequestKind::kClose);
    close.args.Set("session", "sat1");
    script.push_back(close);
  }
  script.push_back(MakeRequest(service::RequestKind::kShutdown));

  const auto responses = RunScript(server, script);
  ASSERT_EQ(responses.size(), script.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].ok) << "response " << i << ": "
                                 << responses[i].payload;
  }

  // Appends report the growing total; convergence state matches the batch
  // criterion over the same stream.
  EXPECT_EQ(responses[2].args.GetUint("total", 0), 200u);
  EXPECT_EQ(responses[4].args.GetUint("total", 0), 600u);
  const auto batch = mbpta::CheckConvergence(TimesOf(obs),
                                             server.options().convergence);
  EXPECT_EQ(responses[5].args.GetUint("converged", 9) == 1, batch.converged);
  EXPECT_EQ(responses[5].args.GetUint("runs_required", 9),
            batch.runs_required);

  // The analysis response carries the quantile and a cache miss.
  EXPECT_EQ(responses[6].args.GetString("cache"), "miss");
  EXPECT_TRUE(responses[6].args.Has("pwcet"));
  EXPECT_EQ(responses[6].args.GetUint("sample_size", 0), 600u);

  // Close really closed: the session is gone.
  EXPECT_EQ(server.sessions().open_count(), 0u);
  EXPECT_TRUE(server.shutdown_requested());
}

TEST(ServerPipeTest, CacheHitOnIdenticalResubmission) {
  service::Server server{service::ServerOptions{}};
  const auto obs = SyntheticSample(240, 11);

  service::Args options;
  options.Set("require_iid", "0");
  const auto responses = RunScript(
      server, {AnalyzeInlineRequest(obs, options),
               AnalyzeInlineRequest(obs, options),
               MakeRequest(service::RequestKind::kShutdown)});
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_TRUE(responses[0].ok) << responses[0].payload;
  ASSERT_TRUE(responses[1].ok) << responses[1].payload;

  EXPECT_EQ(responses[0].args.GetString("cache"), "miss");
  EXPECT_EQ(responses[1].args.GetString("cache"), "hit");
  EXPECT_EQ(responses[0].args.GetString("key"),
            responses[1].args.GetString("key"));
  // The cached answer is byte-identical: same quantile, same report.
  EXPECT_EQ(responses[0].args.GetString("pwcet"),
            responses[1].args.GetString("pwcet"));
  EXPECT_EQ(responses[0].payload, responses[1].payload);

  const auto stats = server.engine().cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

// Regression for the multi-worker race: the first ANALYZE is held on its
// worker (debug_sleep_ms is not part of the content address) so its twin
// is read while it is still pending. With four workers the twin used to
// start a second cold analysis and answer `miss`; it must wait for the
// leader and be served from the cache, on any core count.
TEST(ServerPipeTest, IdenticalAnalyzeWaitsForPendingTwin) {
  service::ServerOptions options;
  options.workers = 4;
  options.enable_debug_hooks = true;
  service::Server server(options);
  const auto obs = SyntheticSample(240, 11);

  service::Args slow;
  slow.Set("require_iid", "0");
  slow.SetDouble("debug_sleep_ms", 200.0);
  service::Args twin;
  twin.Set("require_iid", "0");
  const auto responses = RunScript(
      server, {AnalyzeInlineRequest(obs, slow), AnalyzeInlineRequest(obs, twin),
               MakeRequest(service::RequestKind::kShutdown)});
  ASSERT_EQ(responses.size(), 3u);
  ASSERT_TRUE(responses[0].ok) << responses[0].payload;
  ASSERT_TRUE(responses[1].ok) << responses[1].payload;
  EXPECT_EQ(responses[0].args.GetString("cache"), "miss");
  EXPECT_EQ(responses[1].args.GetString("cache"), "hit");
  EXPECT_EQ(responses[0].args.GetString("key"),
            responses[1].args.GetString("key"));
  EXPECT_EQ(responses[0].args.GetString("pwcet"),
            responses[1].args.GetString("pwcet"));
  EXPECT_EQ(responses[0].payload, responses[1].payload);

  const auto stats = server.engine().cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

// The same ordering holds across streams of one Server: a twin sent on a
// second connection while the first stream's analysis runs is a hit.
TEST(ServerPipeTest, IdenticalAnalyzeOnAnotherStreamWaitsForPendingTwin) {
  service::ServerOptions options;
  options.workers = 4;
  options.enable_debug_hooks = true;
  service::Server server(options);
  const auto obs = SyntheticSample(240, 12);

  service::Args slow;
  slow.Set("require_iid", "0");
  slow.SetDouble("debug_sleep_ms", 300.0);
  std::vector<service::Response> first;
  std::thread leader(
      [&] { first = RunScript(server, {AnalyzeInlineRequest(obs, slow)}); });
  // A recorded queue wait means the leader's worker picked it up, so its
  // key is claimed and it is sleeping inside the analysis.
  while (server.metrics()
             .Snapshot(server.engine().cache().stats())
             .GetUint("queue_waits", 0) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service::Args twin;
  twin.Set("require_iid", "0");
  const auto second = RunScript(server, {AnalyzeInlineRequest(obs, twin)});
  leader.join();

  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  ASSERT_TRUE(first[0].ok) << first[0].payload;
  ASSERT_TRUE(second[0].ok) << second[0].payload;
  EXPECT_EQ(first[0].args.GetString("cache"), "miss");
  EXPECT_EQ(second[0].args.GetString("cache"), "hit");
  EXPECT_EQ(first[0].payload, second[0].payload);
  const auto stats = server.engine().cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

// A leader that inserts nothing (here: refused with ERR deadline) must not
// strand its twin: the follower runs its own analysis and is answered.
TEST(ServerPipeTest, TwinOfRefusedLeaderRunsItsOwnAnalysis) {
  service::ServerOptions options;
  options.workers = 4;
  options.enable_debug_hooks = true;
  service::Server server(options);

  service::Args slow;
  slow.Set("require_iid", "0");
  slow.SetDouble("debug_sleep_ms", 200.0);
  service::Args tight;
  tight.Set("require_iid", "0");
  tight.SetDouble("deadline_ms", 1.0);  // expires queued behind the fillers
  service::Args twin;
  twin.Set("require_iid", "0");

  // Four distinct slow analyses hold every worker, so the leader queues.
  std::vector<service::Request> script;
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    script.push_back(AnalyzeInlineRequest(SyntheticSample(120, seed), slow));
  }
  const auto obs = SyntheticSample(120, 25);
  script.push_back(AnalyzeInlineRequest(obs, tight));
  script.push_back(AnalyzeInlineRequest(obs, twin));
  script.push_back(MakeRequest(service::RequestKind::kShutdown));
  const auto responses = RunScript(server, script);
  ASSERT_EQ(responses.size(), script.size());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(responses[i].ok) << responses[i].payload;
  }
  EXPECT_FALSE(responses[4].ok);
  EXPECT_EQ(responses[4].args.GetString("code"), "deadline");
  ASSERT_TRUE(responses[5].ok) << responses[5].payload;
  EXPECT_EQ(responses[5].args.GetString("cache"), "miss");
  EXPECT_TRUE(responses[5].args.Has("pwcet"));
  EXPECT_TRUE(responses[6].ok);

  const auto stats = server.engine().cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(server.metrics().deadline_misses(), 1u);
}

TEST(ServerPipeTest, LruEvictionBoundsTheCache) {
  service::ServerOptions options;
  options.cache_capacity = 2;
  // One worker => analyses insert into the cache in request order, so the
  // eviction sequence is deterministic.
  options.workers = 1;
  service::Server server(options);

  service::Args no_iid;
  no_iid.Set("require_iid", "0");
  std::vector<service::Request> script;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    script.push_back(
        AnalyzeInlineRequest(SyntheticSample(240, seed), no_iid));
  }
  script.push_back(MakeRequest(service::RequestKind::kShutdown));
  const auto responses = RunScript(server, script);
  ASSERT_EQ(responses.size(), 4u);

  // Resubmit seed 1 on a fresh stream, after the first drained: seed 3's
  // insertion evicted it (LRU), so it must be a miss and evict seed 2.
  const auto resubmit = RunScript(
      server, {AnalyzeInlineRequest(SyntheticSample(240, 1u), no_iid),
               MakeRequest(service::RequestKind::kShutdown)});
  ASSERT_EQ(resubmit.size(), 2u);
  EXPECT_EQ(resubmit[0].args.GetString("cache"), "miss");
  const auto stats = server.engine().cache().stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.size, 2u);
}

TEST(ServerPipeTest, BackpressureRejectsWhenQueueFull) {
  service::ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.enable_debug_hooks = true;
  service::Server server(options);

  service::Args slow;
  slow.Set("require_iid", "0");
  slow.SetDouble("debug_sleep_ms", 300.0);
  service::Args fast;
  fast.Set("require_iid", "0");

  const auto obs = SyntheticSample(120, 5);
  const auto responses = RunScript(
      server, {AnalyzeInlineRequest(obs, slow),
               AnalyzeInlineRequest(SyntheticSample(120, 6), fast),
               AnalyzeInlineRequest(SyntheticSample(120, 8), fast),
               MakeRequest(service::RequestKind::kShutdown)});
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].ok);  // the slot holder completed
  EXPECT_FALSE(responses[1].ok);
  EXPECT_EQ(responses[1].args.GetString("code"), "busy");
  EXPECT_FALSE(responses[2].ok);
  EXPECT_EQ(responses[2].args.GetString("code"), "busy");
  EXPECT_TRUE(responses[3].ok);  // shutdown ack after drain
  EXPECT_EQ(server.metrics().busy_rejections(), 2u);
}

TEST(ServerPipeTest, ExpiredDeadlineIsRejectedNotExecuted) {
  service::ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.enable_debug_hooks = true;
  service::Server server(options);

  service::Args slow;
  slow.Set("require_iid", "0");
  slow.SetDouble("debug_sleep_ms", 200.0);
  service::Args tight;
  tight.Set("require_iid", "0");
  tight.SetDouble("deadline_ms", 1.0);  // expires while queued behind `slow`

  const auto responses = RunScript(
      server, {AnalyzeInlineRequest(SyntheticSample(120, 5), slow),
               AnalyzeInlineRequest(SyntheticSample(120, 6), tight),
               MakeRequest(service::RequestKind::kShutdown)});
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].ok);
  EXPECT_FALSE(responses[1].ok);
  EXPECT_EQ(responses[1].args.GetString("code"), "deadline");
  EXPECT_EQ(server.metrics().deadline_misses(), 1u);
}

TEST(ServerPipeTest, DrainOnShutdownLosesNoAcceptedRequest) {
  service::ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 64;
  service::Server server(options);

  constexpr std::size_t kRequests = 24;
  service::Args no_iid;
  no_iid.Set("require_iid", "0");
  std::vector<service::Request> script;
  for (std::size_t i = 0; i < kRequests; ++i) {
    script.push_back(
        AnalyzeInlineRequest(SyntheticSample(150, 100 + i), no_iid));
  }
  script.push_back(MakeRequest(service::RequestKind::kShutdown));

  const auto responses = RunScript(server, script);
  ASSERT_EQ(responses.size(), kRequests + 1);
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(responses[i].ok) << responses[i].payload;
    EXPECT_TRUE(responses[i].args.Has("pwcet"));
  }
  EXPECT_TRUE(responses.back().ok);
  EXPECT_EQ(responses.back().args.GetString("drained"), "1");
  EXPECT_EQ(server.metrics().requests_total(), kRequests + 1);
  EXPECT_EQ(server.metrics().errors_total(), 0u);
}

TEST(ServerPipeTest, MetricsSurfaceCountsTraffic) {
  service::Server server{service::ServerOptions{}};
  const auto obs = SyntheticSample(240, 11);
  service::Args no_iid;
  no_iid.Set("require_iid", "0");
  const auto traffic = RunScript(
      server, {AnalyzeInlineRequest(obs, no_iid),
               AnalyzeInlineRequest(obs, no_iid),
               MakeRequest(service::RequestKind::kShutdown)});
  ASSERT_EQ(traffic.size(), 3u);
  // METRICS is deliberately instantaneous (no barrier on in-flight work),
  // so read the surface on a second stream after the drain.
  const auto responses =
      RunScript(server, {MakeRequest(service::RequestKind::kMetrics)});
  ASSERT_EQ(responses.size(), 1u);
  const auto& metrics = responses[0];
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.args.GetUint("analyses_total", 0), 2u);
  EXPECT_EQ(metrics.args.GetUint("cache_hits", 0), 1u);
  EXPECT_EQ(metrics.args.GetUint("cache_misses", 0), 1u);
  EXPECT_NEAR(metrics.args.GetDouble("cache_hit_ratio", 0.0), 0.5, 1e-12);
  // The human dump carries the latency histograms.
  EXPECT_NE(metrics.payload.find("cold analyze latency"), std::string::npos);
}

// The Snapshot/Render key order is a wire contract (docs/SERVICE.md):
// scrapers parse these lines positionally, so the order is golden-tested.
// If this test fails because a key was ADDED, extend the expectation; a
// reorder or rename is a breaking change and needs a docs + version call.
TEST(ServerPipeTest, MetricsSnapshotKeyOrderIsGolden) {
  service::Server server{service::ServerOptions{}};
  const auto obs = SyntheticSample(240, 11);
  service::Args no_iid;
  no_iid.Set("require_iid", "0");
  RunScript(server, {MakeRequest(service::RequestKind::kPing),
                     AnalyzeInlineRequest(obs, no_iid),
                     MakeRequest(service::RequestKind::kShutdown)});
  const auto snapshot =
      server.metrics().Snapshot(server.engine().cache().stats());
  std::vector<std::string> keys;
  for (const auto& [key, value] : snapshot.values()) keys.push_back(key);
  const std::vector<std::string> golden = {
      "analyses_total", "busy_rejections",  "cache_capacity",
      "cache_collisions", "cache_evictions", "cache_hit_ratio",
      "cache_hits",     "cache_misses",     "cache_size",
      "deadline_misses", "errors_total",    "faults_injected",
      "protocol_errors", "queue_waits",     "requests_ANALYZE",
      "requests_PING",  "requests_SHUTDOWN", "requests_total",
      "sessions_degraded"};
  EXPECT_EQ(keys, golden);

  // Render = the Snapshot lines in the same order, then the latency mean,
  // then the ASCII histograms (cold before cache-hit when both exist).
  const auto text =
      server.metrics().Render(server.engine().cache().stats());
  std::size_t pos = 0;
  for (const auto& key : golden) {
    const std::size_t at = text.find(key + " ", pos);
    ASSERT_NE(at, std::string::npos) << key;
    EXPECT_GE(at, pos) << key << " out of order";
    pos = at;
  }
  EXPECT_NE(text.find("analyze_latency_mean_us ", pos), std::string::npos);
  EXPECT_NE(text.find("cold analyze latency", pos), std::string::npos);
}

TEST(ServerPipeTest, MetricsPromServesValidExposition) {
  service::Server server{service::ServerOptions{}};
  const auto obs = SyntheticSample(240, 11);
  service::Args no_iid;
  no_iid.Set("require_iid", "0");
  RunScript(server, {AnalyzeInlineRequest(obs, no_iid),
                     AnalyzeInlineRequest(obs, no_iid),
                     MakeRequest(service::RequestKind::kShutdown)});
  const auto responses =
      RunScript(server, {MakeRequest(service::RequestKind::kMetricsProm)});
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok);
  EXPECT_EQ(responses[0].args.GetString("format", ""), "prometheus-0.0.4");
  const std::string& text = responses[0].payload;

  // Every line is a comment or `name[{labels}] value` — no stray text.
  std::istringstream lines(text);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.rfind("spta_", 0), 0u) << line;
    char* end = nullptr;
    std::strtod(line.c_str() + space + 1, &end);
    EXPECT_EQ(*end, '\0') << line;
    ++samples;
  }
  EXPECT_GT(samples, 20u);

  // The surface the acceptance criteria name: requests, latencies with the
  // hit/miss split, cache, fault, and obs counters.
  EXPECT_NE(text.find("# TYPE spta_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("spta_requests_by_verb_total{verb=\"ANALYZE\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE spta_analyze_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("spta_analyze_latency_seconds_bucket{cache=\"hit\",le=\""),
      std::string::npos);
  EXPECT_NE(
      text.find("spta_analyze_latency_seconds_bucket{cache=\"miss\",le=\""),
      std::string::npos);
  EXPECT_NE(text.find("spta_analyze_latency_seconds_count{cache=\"hit\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("# TYPE spta_queue_wait_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("spta_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("spta_cache_misses_total 1"), std::string::npos);
  EXPECT_NE(text.find("spta_faults_injected_total 0"), std::string::npos);
  EXPECT_NE(text.find("spta_obs_trace_events_recorded_total"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE spta_cache_entries gauge"), std::string::npos);
}

// The acceptance-criteria golden check: a pWCET quantile served over the
// wire equals the batch pipeline's on the same parallel campaign,
// bit for bit (the %.17g wire encoding round-trips the doubles exactly).
TEST(ServedVsBatchGoldenTest, ServedQuantileEqualsBatchBitForBit) {
  const apps::TvcaApp app;
  const auto frame = app.BuildFrame(3);
  const auto samples = analysis::RunFixedTraceCampaignParallel(
      sim::RandLeon3Config(), frame.trace, 300, 20170327, 2);
  const auto obs = analysis::ToPathObservations(samples);

  // Batch side: the library pipeline, straight on the campaign doubles.
  mbpta::MbptaOptions batch_opts;
  batch_opts.require_iid = false;
  const auto batch = mbpta::AnalyzeSample(TimesOf(obs), batch_opts);
  ASSERT_TRUE(batch.curve.has_value());
  const double batch_pwcet = batch.curve->QuantileForExceedance(1e-12);

  // Served side: streaming ingestion in chunks, then ANALYZE.
  service::Server server{service::ServerOptions{}};
  std::vector<service::Request> script;
  service::Request open = MakeRequest(service::RequestKind::kOpen);
  open.args.Set("session", "golden");
  script.push_back(open);
  for (std::size_t offset = 0; offset < obs.size(); offset += 100) {
    service::Request append = MakeRequest(service::RequestKind::kAppend);
    append.args.Set("session", "golden");
    append.payload = service::EncodeSamplePayload(
        std::vector<mbpta::PathObservation>(obs.begin() + offset,
                                            obs.begin() + offset + 100));
    script.push_back(append);
  }
  service::Request analyze = MakeRequest(service::RequestKind::kAnalyze);
  analyze.args.Set("session", "golden");
  analyze.args.Set("require_iid", "0");
  analyze.args.SetDouble("prob", 1e-12);
  script.push_back(analyze);
  script.push_back(MakeRequest(service::RequestKind::kShutdown));

  const auto responses = RunScript(server, script);
  ASSERT_EQ(responses.size(), script.size());
  const auto& served = responses[responses.size() - 2];
  ASSERT_TRUE(served.ok) << served.payload;
  ASSERT_TRUE(served.args.Has("pwcet"));
  const double served_pwcet =
      std::strtod(served.args.GetString("pwcet").c_str(), nullptr);
  EXPECT_EQ(served_pwcet, batch_pwcet);  // bit-for-bit, not NEAR
  EXPECT_EQ(served.args.GetUint("sample_size", 0), obs.size());
}

// --- HEALTH (liveness/readiness) ------------------------------------------

TEST(HealthTest, ClassicServerReportsReadiness) {
  service::Server server;
  std::vector<service::Request> script;
  script.push_back(MakeRequest(service::RequestKind::kHealth));
  script.push_back(MakeRequest(service::RequestKind::kShutdown));
  const auto responses = RunScript(server, script);
  ASSERT_EQ(responses.size(), 2u);
  const auto& health = responses[0];
  ASSERT_TRUE(health.ok) << health.payload;
  EXPECT_EQ(health.args.GetString("status"), "ok");
  EXPECT_EQ(health.args.GetString("role"), "server");
  EXPECT_EQ(health.args.GetUint("inflight", 99), 0u);
  EXPECT_EQ(health.args.GetUint("queue_capacity", 0), 64u);
  EXPECT_EQ(health.args.GetUint("sessions", 99), 0u);
  EXPECT_EQ(health.args.GetUint("draining", 99), 0u);
}

TEST(HealthTest, SessionsAndCapacityAreReported) {
  service::ServerOptions options;
  options.queue_capacity = 7;
  service::Server server(options);
  std::vector<service::Request> script;
  service::Request open = MakeRequest(service::RequestKind::kOpen);
  open.args.Set("session", "h");
  script.push_back(open);
  script.push_back(MakeRequest(service::RequestKind::kHealth));
  script.push_back(MakeRequest(service::RequestKind::kShutdown));
  const auto responses = RunScript(server, script);
  ASSERT_EQ(responses.size(), 3u);
  const auto& health = responses[1];
  ASSERT_TRUE(health.ok) << health.payload;
  EXPECT_EQ(health.args.GetUint("queue_capacity", 0), 7u);
  EXPECT_EQ(health.args.GetUint("sessions", 0), 1u);
}

TEST(UnixSocketTest, ClientServerEndToEndOverSocket) {
  const std::string path =
      "/tmp/spta_service_test_" + std::to_string(::getpid()) + ".sock";
  service::ServerOptions options;
  options.workers = 2;
  service::Server server(options);
  std::thread daemon([&] { server.ServeUnixSocket(path); });

  // Wait for the listener to come up.
  std::unique_ptr<service::UnixSocketConnection> connection;
  std::string error;
  for (int attempt = 0; attempt < 200 && !connection; ++attempt) {
    connection = service::UnixSocketConnection::Connect(path, &error);
    if (!connection) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(connection) << error;

  service::Client client(connection->in(), connection->out());
  EXPECT_TRUE(client.Ping().ok);

  // HEALTH over the real blocking-socket path: an idle daemon is ready.
  const auto health = client.Health();
  ASSERT_TRUE(health.ok) << health.payload;
  EXPECT_EQ(health.args.GetString("status"), "ok");
  EXPECT_EQ(health.args.GetString("role"), "server");

  const auto obs = SyntheticSample(240, 21);
  service::Args no_iid;
  no_iid.Set("require_iid", "0");
  const auto analysis = client.AnalyzeInline(obs, no_iid);
  ASSERT_TRUE(analysis.ok) << analysis.payload;
  EXPECT_TRUE(analysis.args.Has("pwcet"));

  const auto ack = client.Shutdown();
  EXPECT_TRUE(ack.ok);
  daemon.join();
  EXPECT_TRUE(server.shutdown_requested());
}

}  // namespace
}  // namespace spta
