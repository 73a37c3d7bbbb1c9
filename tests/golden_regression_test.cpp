// Golden-value regression guards + cross-kernel static-bound soundness.
//
// The golden values pin the exact timing of one reference workload under
// fixed seeds. They are EXPECTED to change whenever the timing model is
// deliberately re-tuned — the test exists so such changes are explicit
// (update the constants alongside the model change and re-baseline the
// benches) rather than accidental drift.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <ostream>
#include <span>
#include <vector>

#include "analysis/atlas_campaign.hpp"
#include "analysis/batch_campaign.hpp"
#include "analysis/campaign.hpp"
#include "analysis/parallel_campaign.hpp"
#include "atlas/kernel_store.hpp"
#include "atlas/memo_runner.hpp"
#include "atlas/mine.hpp"
#include "atlas/state_digest.hpp"
#include "apps/kernels.hpp"
#include "apps/tvca.hpp"
#include "mbpta/mbpta.hpp"
#include "prng/xoshiro.hpp"
#include "sim/batch/batch_platform.hpp"
#include "sim/batch/prepared_trace.hpp"
#include "sim/platform.hpp"
#include "swcet/static_bound.hpp"
#include "trace/interpreter.hpp"

namespace spta {
namespace {

TEST(GoldenRegressionTest, ReferenceFrameTiming) {
  const apps::TvcaApp app;
  const auto frame = app.BuildFrame(42);
  EXPECT_EQ(frame.trace.records.size(), 224837u);
  EXPECT_EQ(frame.path_id, 4u);

  sim::Platform det(sim::DetLeon3Config(), 1);
  sim::Platform rnd(sim::RandLeon3Config(), 1);
  EXPECT_EQ(det.Run(frame.trace, 7).cycles, 826594u);
  EXPECT_EQ(rnd.Run(frame.trace, 7).cycles, 873322u);
  EXPECT_EQ(rnd.Run(frame.trace, 8).cycles, 879851u);
}

// ---------------------------------------------------------------------------
// Per-seed cycle + miss-count goldens for three workloads (the reduced
// TVCA frame and two kernel traces), frozen from the pre-fast-path tree.
// The throughput refactor's bit-identity contract means these can never
// drift; a deliberate timing-model change re-baselines them explicitly.
struct SeedGolden {
  std::uint64_t seed;
  std::uint64_t cycles;
  std::uint64_t il1_misses;
  std::uint64_t dl1_misses;
  std::uint64_t itlb_misses;
  std::uint64_t dtlb_misses;
};

void ExpectResultMatches(const sim::RunResult& result,
                         const SeedGolden& golden, const char* workload) {
  EXPECT_EQ(result.cycles, golden.cycles) << workload << " seed "
                                          << golden.seed;
  EXPECT_EQ(result.il1.misses, golden.il1_misses) << workload;
  EXPECT_EQ(result.dl1.misses, golden.dl1_misses) << workload;
  EXPECT_EQ(result.itlb.misses, golden.itlb_misses) << workload;
  EXPECT_EQ(result.dtlb.misses, golden.dtlb_misses) << workload;
}

void ExpectRunMatches(sim::Platform& platform, const trace::Trace& t,
                      const SeedGolden& golden, const char* workload) {
  ExpectResultMatches(platform.Run(t, golden.seed), golden, workload);
}

/// Replays a golden table through the lockstep batch kernel — all seeds in
/// ONE batch — so the pinned per-seed numbers also guard the batched path.
void ExpectBatchMatches(const sim::PlatformConfig& config,
                        const trace::Trace& t,
                        std::span<const SeedGolden> goldens,
                        const char* workload) {
  const auto prepared = sim::batch::PrepareTrace(t, config);
  sim::batch::BatchPlatform batch(config, goldens.size());
  std::vector<Seed> seeds;
  for (const auto& g : goldens) seeds.push_back(g.seed);
  const auto results = batch.RunBatch(prepared, seeds);
  for (std::size_t l = 0; l < goldens.size(); ++l) {
    ExpectResultMatches(results[l], goldens[l], workload);
  }
}

// Frozen per-seed goldens, shared by the serial and batched guards. The
// reduced TVCA frame's DL1 conflict misses move with the placement seed;
// matmul/fir fit L1 entirely, so every seed pins identical numbers.
constexpr SeedGolden kReducedTvcaDetGolden = {7, 50538, 112, 400, 4, 7};
constexpr SeedGolden kReducedTvcaRandGoldens[] = {
    {1, 50592, 112, 400, 4, 7}, {2, 50634, 112, 401, 4, 7},
    {3, 50592, 112, 400, 4, 7}, {4, 50592, 112, 400, 4, 7},
    {5, 50706, 112, 401, 4, 7},
};
constexpr SeedGolden kMatmulGoldens[] = {
    {7, 34209, 4, 150, 1, 1}, {1, 34209, 4, 150, 1, 1},
    {2, 34209, 4, 150, 1, 1}, {3, 34209, 4, 150, 1, 1},
    {4, 34209, 4, 150, 1, 1}, {5, 34209, 4, 150, 1, 1},
};
constexpr SeedGolden kFirGoldens[] = {
    {7, 11779, 3, 84, 1, 1}, {1, 11779, 3, 84, 1, 1},
    {2, 11779, 3, 84, 1, 1}, {3, 11779, 3, 84, 1, 1},
    {4, 11779, 3, 84, 1, 1}, {5, 11779, 3, 84, 1, 1},
};

apps::TvcaConfig ReducedTvcaConfig() {
  apps::TvcaConfig tc;
  tc.sensor_channels = 4;
  tc.samples_per_frame = 8;
  tc.fir_taps = 6;
  tc.state_dim = 8;
  tc.integrator_steps = 6;
  tc.control_iterations = 1;
  tc.straightline_instructions = 200;
  tc.dispatch_overhead = 32;
  return tc;
}

trace::Trace MatmulTrace() {
  const trace::Program program = apps::MakeMatMulProgram(10);
  trace::Interpreter interp(program);
  prng::Xoshiro128pp rng(77);
  for (int i = 0; i < 100; ++i) {
    interp.WriteFp(0, static_cast<std::size_t>(i), rng.UniformUnit());
    interp.WriteFp(1, static_cast<std::size_t>(i), rng.UniformUnit());
  }
  return interp.Run();
}

trace::Trace FirTrace() {
  const trace::Program program = apps::MakeFirProgram(8, 64);
  trace::Interpreter interp(program);
  prng::Xoshiro128pp rng(78);
  for (int i = 0; i < 8; ++i) {
    interp.WriteFp(0, static_cast<std::size_t>(i), 0.125);
  }
  for (int i = 0; i < 72; ++i) {
    interp.WriteFp(1, static_cast<std::size_t>(i), rng.Normal());
  }
  return interp.Run();
}

TEST(GoldenRegressionTest, ReducedTvcaPerSeedCycles) {
  const apps::TvcaApp app(ReducedTvcaConfig());
  const auto frame = app.BuildFrame(42);
  ASSERT_EQ(frame.trace.records.size(), 9065u);
  ASSERT_EQ(frame.path_id, 4u);

  sim::Platform det(sim::DetLeon3Config(), 1);
  ExpectRunMatches(det, frame.trace, kReducedTvcaDetGolden,
                   "tvca-reduced det");

  // Randomized platform: placement/replacement seeds perturb DL1 conflict
  // misses run to run, while the instruction side stays untouched (the
  // reduced frame's code footprint fits IL1 for every placement seed).
  sim::Platform rnd(sim::RandLeon3Config(), 1);
  for (const auto& golden : kReducedTvcaRandGoldens) {
    ExpectRunMatches(rnd, frame.trace, golden, "tvca-reduced rand");
  }
}

TEST(GoldenRegressionTest, MatmulKernelPerSeedCycles) {
  const trace::Trace t = MatmulTrace();
  ASSERT_EQ(t.records.size(), 13286u);

  // The 10x10 matmul's whole footprint fits both L1s: randomization has
  // nothing to perturb (cold misses only), so DET and every RAND seed pin
  // the exact same numbers — itself a property worth freezing.
  sim::Platform det(sim::DetLeon3Config(), 1);
  ExpectRunMatches(det, t, kMatmulGoldens[0], "matmul det");
  sim::Platform rnd(sim::RandLeon3Config(), 1);
  for (std::size_t i = 1; i < std::size(kMatmulGoldens); ++i) {
    ExpectRunMatches(rnd, t, kMatmulGoldens[i], "matmul rand");
  }
}

TEST(GoldenRegressionTest, FirKernelPerSeedCycles) {
  const trace::Trace t = FirTrace();
  ASSERT_EQ(t.records.size(), 5255u);

  sim::Platform det(sim::DetLeon3Config(), 1);
  ExpectRunMatches(det, t, kFirGoldens[0], "fir det");
  sim::Platform rnd(sim::RandLeon3Config(), 1);
  for (std::size_t i = 1; i < std::size(kFirGoldens); ++i) {
    ExpectRunMatches(rnd, t, kFirGoldens[i], "fir rand");
  }
}

// The SAME frozen tables replayed through the lockstep batch kernel: every
// pinned seed rides in one multi-lane batch and must land on the identical
// cycle and miss counts. (The det golden runs on the DET platform config,
// whose deterministic policies are still exercised by the lane arrays.)
TEST(GoldenRegressionTest, BatchedPathReproducesPerSeedGoldens) {
  const apps::TvcaApp app(ReducedTvcaConfig());
  const auto frame = app.BuildFrame(42);
  ExpectBatchMatches(sim::DetLeon3Config(), frame.trace,
                     {&kReducedTvcaDetGolden, 1}, "tvca-reduced det batched");
  ExpectBatchMatches(sim::RandLeon3Config(), frame.trace,
                     kReducedTvcaRandGoldens, "tvca-reduced rand batched");

  const trace::Trace matmul = MatmulTrace();
  ExpectBatchMatches(sim::DetLeon3Config(), matmul, {kMatmulGoldens, 1},
                     "matmul det batched");
  ExpectBatchMatches(sim::RandLeon3Config(), matmul,
                     std::span<const SeedGolden>(kMatmulGoldens).subspan(1),
                     "matmul rand batched");

  const trace::Trace fir = FirTrace();
  ExpectBatchMatches(sim::DetLeon3Config(), fir, {kFirGoldens, 1},
                     "fir det batched");
  ExpectBatchMatches(sim::RandLeon3Config(), fir,
                     std::span<const SeedGolden>(kFirGoldens).subspan(1),
                     "fir rand batched");
}

// pWCET-quantile equality: for three campaign master seeds, the batched
// TVCA campaign (scenario-grouped batches, 2 worker threads) must hand the
// MBPTA pipeline the exact sample the serial runner produces — hence the
// same Gumbel fit and the same pWCET quantiles to the last bit.
TEST(GoldenRegressionTest, BatchedCampaignPwcetQuantilesMatchSerial) {
  const apps::TvcaApp app(ReducedTvcaConfig());
  const auto platform_config = sim::RandLeon3Config();
  for (const std::uint64_t master : {11ull, 22ull, 33ull}) {
    analysis::CampaignConfig cc;
    cc.runs = 120;
    cc.master_seed = master;
    cc.distinct_scenarios = 6;  // fixed suite: runs share frames -> batches

    sim::Platform platform(platform_config, master);
    const auto serial_times =
        analysis::ExtractTimes(analysis::RunTvcaCampaign(platform, app, cc));
    const auto batched_times =
        analysis::ExtractTimes(analysis::RunTvcaCampaignBatched(
            platform_config, app, cc, /*lanes=*/8, /*jobs=*/2));
    ASSERT_EQ(serial_times, batched_times) << "master " << master;

    const auto serial_fit = mbpta::AnalyzeSample(serial_times);
    const auto batched_fit = mbpta::AnalyzeSample(batched_times);
    ASSERT_EQ(serial_fit.usable, batched_fit.usable) << "master " << master;
    if (serial_fit.usable) {
      for (const double p : {1e-9, 1e-12, 1e-15}) {
        EXPECT_EQ(serial_fit.PwcetAt(p), batched_fit.PwcetAt(p))
            << "master " << master << " p " << p;
      }
    }
  }
}

/// Replays a golden table through the atlas memoized runner — one shared
/// KernelStore across every seed, the production arrangement — so the
/// pinned per-seed numbers also guard the kernel fast-forward path.
void ExpectMemoMatches(const sim::PlatformConfig& config,
                       const trace::Trace& t,
                       std::span<const SeedGolden> goldens,
                       const char* workload) {
  const atlas::Segmentation segmentation = atlas::MineKernels(t);
  const DualHash config_digest = atlas::ConfigDigest(config);
  sim::Platform platform(config, 1);
  atlas::KernelStore store;
  for (const auto& g : goldens) {
    ExpectResultMatches(atlas::RunMemoized(platform, t, segmentation,
                                           g.seed, config_digest, &store),
                        g, workload);
  }
}

TEST(GoldenRegressionTest, AtlasMemoizedPathReproducesPerSeedGoldens) {
  const apps::TvcaApp app(ReducedTvcaConfig());
  const auto frame = app.BuildFrame(42);
  ExpectMemoMatches(sim::DetLeon3Config(), frame.trace,
                    {&kReducedTvcaDetGolden, 1}, "tvca-reduced det memo");
  ExpectMemoMatches(sim::RandLeon3Config(), frame.trace,
                    kReducedTvcaRandGoldens, "tvca-reduced rand memo");

  const trace::Trace matmul = MatmulTrace();
  ExpectMemoMatches(sim::DetLeon3Config(), matmul, {kMatmulGoldens, 1},
                    "matmul det memo");
  ExpectMemoMatches(sim::RandLeon3Config(), matmul,
                    std::span<const SeedGolden>(kMatmulGoldens).subspan(1),
                    "matmul rand memo");

  const trace::Trace fir = FirTrace();
  ExpectMemoMatches(sim::DetLeon3Config(), fir, {kFirGoldens, 1},
                    "fir det memo");
  ExpectMemoMatches(sim::RandLeon3Config(), fir,
                    std::span<const SeedGolden>(kFirGoldens).subspan(1),
                    "fir rand memo");
}

// pWCET-quantile equality for the memoized campaign path (the --atlas
// flag): same sample as the serial runner, hence the same fit and the
// same quantiles to the last bit.
TEST(GoldenRegressionTest, AtlasCampaignPwcetQuantilesMatchSerial) {
  const apps::TvcaApp app(ReducedTvcaConfig());
  const auto platform_config = sim::RandLeon3Config();
  for (const std::uint64_t master : {11ull, 22ull, 33ull}) {
    analysis::CampaignConfig cc;
    cc.runs = 120;
    cc.master_seed = master;
    cc.distinct_scenarios = 6;

    sim::Platform platform(platform_config, master);
    const auto serial_times =
        analysis::ExtractTimes(analysis::RunTvcaCampaign(platform, app, cc));
    const auto memo_times = analysis::ExtractTimes(
        analysis::RunTvcaCampaignMemoized(platform_config, app, cc,
                                          /*jobs=*/2));
    ASSERT_EQ(serial_times, memo_times) << "master " << master;

    const auto serial_fit = mbpta::AnalyzeSample(serial_times);
    const auto memo_fit = mbpta::AnalyzeSample(memo_times);
    ASSERT_EQ(serial_fit.usable, memo_fit.usable) << "master " << master;
    if (serial_fit.usable) {
      for (const double p : {1e-9, 1e-12, 1e-15}) {
        EXPECT_EQ(serial_fit.PwcetAt(p), memo_fit.PwcetAt(p))
            << "master " << master << " p " << p;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end MBPTA pipeline golden values, produced THROUGH the parallel
// campaign runner: the sample vector must equal the serial runner's bit for
// bit, and the downstream pipeline (Ljung-Box, KS, Gumbel fit, pWCET) must
// therefore reproduce the pinned numbers regardless of the job count used
// to collect the measurements. Re-baseline these constants only alongside a
// deliberate timing-model change.
TEST(GoldenRegressionTest, MbptaPipelineThroughParallelRunner) {
  apps::TvcaConfig tc;  // reduced frame so 300 runs stay test-sized
  tc.sensor_channels = 4;
  tc.samples_per_frame = 8;
  tc.fir_taps = 6;
  tc.state_dim = 8;
  tc.integrator_steps = 6;
  tc.control_iterations = 1;
  tc.straightline_instructions = 200;
  tc.dispatch_overhead = 32;
  const apps::TvcaApp app(tc);

  analysis::CampaignConfig cc;
  cc.runs = 300;  // fresh inputs per run, the paper's analysis protocol

  sim::Platform platform(sim::RandLeon3Config(), cc.master_seed);
  const auto serial_times =
      analysis::ExtractTimes(analysis::RunTvcaCampaign(platform, app, cc));
  const auto parallel_times = analysis::ExtractTimes(
      analysis::RunTvcaCampaignParallel(sim::RandLeon3Config(), app, cc, 4));
  ASSERT_EQ(serial_times, parallel_times);  // bit-identical doubles

  const auto result = mbpta::AnalyzeSample(parallel_times);
  EXPECT_TRUE(result.usable);
  EXPECT_TRUE(result.iid.Passed());
  // Golden i.i.d. gate values and pWCET, pinned from the deterministic
  // sample (identical under any --jobs, asserted above).
  EXPECT_NEAR(result.iid.independence.p_value, 0.142373525583, 1e-9);
  EXPECT_NEAR(result.iid.identical_distribution.p_value, 0.799993650987,
              1e-9);
  EXPECT_EQ(result.block_size, 10u);
  EXPECT_NEAR(result.PwcetAt(1e-12), 88623.514295, 1e-3);
}

// ---------------------------------------------------------------------------
// Static-bound soundness across the whole kernel suite: for every kernel,
// derive loop bounds from one exercising trace (with margin) and check the
// bound dominates simulated executions over fresh inputs and seeds.
struct KernelUnderTest {
  const char* name;
  std::function<trace::Program()> make_program;
  std::function<void(trace::Interpreter&, std::uint64_t)> poke;
};

// Names each case by its kernel. Without it gtest prints the raw bytes of
// the struct, which hold code and heap addresses, so the discovered ctest
// names changed with every build.
void PrintTo(const KernelUnderTest& k, std::ostream* os) { *os << k.name; }

class StaticSoundnessSweep
    : public ::testing::TestWithParam<KernelUnderTest> {};

TEST_P(StaticSoundnessSweep, BoundDominatesSimulatedRuns) {
  const auto& k = GetParam();
  const trace::Program program = k.make_program();

  // Evidence trace for loop bounds (seed 0); margin covers other inputs.
  trace::Interpreter evidence(program);
  k.poke(evidence, 0);
  const trace::Trace evidence_trace = evidence.Run();
  const std::vector<const trace::Trace*> traces = {&evidence_trace};
  const auto bounds = swcet::DeriveLoopBounds(program, traces, 1.5);
  const auto config = sim::RandLeon3Config();
  const auto bound = swcet::ComputeStaticBound(program, bounds, config);

  sim::Platform platform(config, 1);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    trace::Interpreter interp(program);
    k.poke(interp, seed);
    const auto t = interp.Run();
    const auto res = platform.Run(t, seed);
    EXPECT_GE(bound.wcet_bound, res.cycles) << k.name << " seed " << seed;
    // The best-case figure is a floor under the ANNOTATED (margin-inflated)
    // iteration counts, not under observed executions — so it is only
    // sanity-checked for being strictly below the worst-case bound.
    EXPECT_LT(bound.bcet_bound, bound.wcet_bound) << k.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, StaticSoundnessSweep,
    ::testing::Values(
        KernelUnderTest{"matmul",
                        [] { return apps::MakeMatMulProgram(10); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          for (int i = 0; i < 100; ++i) {
                            in.WriteFp(0, (std::size_t)i, rng.UniformUnit());
                            in.WriteFp(1, (std::size_t)i, rng.UniformUnit());
                          }
                        }},
        KernelUnderTest{"fir",
                        [] { return apps::MakeFirProgram(8, 64); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          for (int i = 0; i < 8; ++i) {
                            in.WriteFp(0, (std::size_t)i, 0.125);
                          }
                          for (int i = 0; i < 72; ++i) {
                            in.WriteFp(1, (std::size_t)i, rng.Normal());
                          }
                        }},
        KernelUnderTest{"crc",
                        [] { return apps::MakeCrcProgram(128); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          for (int i = 0; i < 256; ++i) {
                            in.WriteInt(0, (std::size_t)i,
                                        (std::int32_t)(rng.Next() & 0xffff));
                          }
                          for (int i = 0; i < 128; ++i) {
                            in.WriteInt(1, (std::size_t)i,
                                        (std::int32_t)(rng.Next() & 0xff));
                          }
                        }},
        KernelUnderTest{"bubble-sort",
                        [] { return apps::MakeBubbleSortProgram(40); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          for (int i = 0; i < 40; ++i) {
                            in.WriteInt(0, (std::size_t)i,
                                        (std::int32_t)rng.UniformBelow(1000));
                          }
                        }},
        KernelUnderTest{"binary-search",
                        [] { return apps::MakeBinarySearchProgram(256, 16); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          for (int i = 0; i < 256; ++i) {
                            in.WriteInt(0, (std::size_t)i, 2 * i);
                          }
                          for (int q = 0; q < 16; ++q) {
                            in.WriteInt(1, (std::size_t)q,
                                        (std::int32_t)rng.UniformBelow(512));
                          }
                        }},
        KernelUnderTest{"interpolation",
                        [] { return apps::MakeInterpolationProgram(32, 16); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          for (int i = 0; i < 32; ++i) {
                            in.WriteFp(0, (std::size_t)i, 1.0 * i);
                            in.WriteFp(1, (std::size_t)i, 0.5 * i);
                          }
                          for (int q = 0; q < 16; ++q) {
                            in.WriteFp(2, (std::size_t)q,
                                       rng.UniformReal(-3.0, 35.0));
                          }
                        }},
        KernelUnderTest{"lu-solve",
                        [] { return apps::MakeLuSolveProgram(8); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          for (int i = 0; i < 8; ++i) {
                            for (int j = 0; j < 8; ++j) {
                              double v = 0.2 * (rng.UniformUnit() - 0.5);
                              if (i == j) v += 3.0;
                              in.WriteFp(0, (std::size_t)(i * 8 + j), v);
                            }
                            in.WriteFp(1, (std::size_t)i, rng.Normal());
                          }
                        }},
        KernelUnderTest{"attitude",
                        [] { return apps::MakeAttitudeProgram(6); },
                        [](trace::Interpreter& in, std::uint64_t seed) {
                          prng::Xoshiro128pp rng(seed);
                          in.WriteFp(0, 0, 1.0);
                          for (int s = 0; s < 18; ++s) {
                            in.WriteFp(1, (std::size_t)s,
                                       rng.UniformReal(-1.0, 1.0));
                          }
                        }}));

}  // namespace
}  // namespace spta
