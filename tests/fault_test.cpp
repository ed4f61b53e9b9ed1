/**
 * @file
 * End-to-end timing-fault injection, a metamorphic check: workloads
 * run under injected latency spikes, dropped prefetches, outQ stalls
 * and delayed fills must still verify against the reference kernel,
 * must actually take the faults, and must replay exactly for a given
 * (seed, spec).
 */

#include <gtest/gtest.h>

#include "sim/fault.hpp"
#include "workloads/registry.hpp"

using namespace tmu;
using namespace tmu::sim;
using namespace tmu::workloads;

namespace {

/** Small, fast SpMV run with the given fault plan. */
RunResult
runSpmv(Mode mode, FaultInjector *faults)
{
    auto wl = makeWorkload("SpMV");
    wl->prepare("M1", /*scaleDiv=*/2048);
    RunConfig cfg;
    cfg.system.cores = 2;
    cfg.mode = mode;
    cfg.faults = faults;
    return wl->run(cfg);
}

} // namespace

TEST(FaultInjection, TimingFaultsAreMaskedAndVerified)
{
    auto spec = FaultSpec::parse(
        "mem-lat=0.05:100,drop-pf=0.1,outq-stall=0.02:32,"
        "fill-delay=0.05:64");
    ASSERT_TRUE(spec.ok()) << spec.error().str();
    FaultInjector faults(42, *spec);

    const RunResult res = runSpmv(Mode::Tmu, &faults);
    EXPECT_TRUE(res.verified);
    EXPECT_TRUE(res.sim.completed());

    EXPECT_GT(faults.totals().injected, 0u);
}

TEST(FaultInjection, MixedSpecStaysAccountedAcrossSeeds)
{
    // Whatever the seed, the output must still verify under every
    // timing site at once. The simulated address space is canonical
    // (independent of host heap layout), so the run is also exactly
    // reproducible in-process: the same (seed, spec) must replay the
    // same injections and the same cycle count.
    auto spec = FaultSpec::parse(
        "mem-lat=0.02:150,drop-pf=0.05,outq-stall=0.02:32,"
        "fill-delay=0.05:64");
    ASSERT_TRUE(spec.ok()) << spec.error().str();

    for (const std::uint64_t seed : {1234ULL, 99ULL}) {
        FaultInjector f(seed, *spec);
        const RunResult r = runSpmv(Mode::Tmu, &f);
        EXPECT_TRUE(r.verified) << "seed " << seed;
        EXPECT_TRUE(r.sim.completed()) << "seed " << seed;
        EXPECT_GT(f.totals().injected, 0u) << "seed " << seed;

        FaultInjector again(seed, *spec);
        const RunResult r2 = runSpmv(Mode::Tmu, &again);
        EXPECT_EQ(again.totals().injected, f.totals().injected)
            << "seed " << seed;
        EXPECT_EQ(r2.sim.cycles, r.sim.cycles) << "seed " << seed;
    }
}

TEST(FaultInjection, LatencyFaultsSlowTheRunDown)
{
    const RunResult clean = runSpmv(Mode::Tmu, nullptr);

    auto spec = FaultSpec::parse("mem-lat=0.5:500");
    ASSERT_TRUE(spec.ok());
    FaultInjector faults(3, *spec);
    const RunResult slow = runSpmv(Mode::Tmu, &faults);

    EXPECT_TRUE(clean.verified);
    EXPECT_TRUE(slow.verified);
    EXPECT_GT(faults.totals().injected, 0u);
    // Heavy latency injection must actually cost cycles, proving the
    // injected latency reaches the timing model.
    EXPECT_GT(slow.sim.cycles, clean.sim.cycles);
}

TEST(FaultInjection, BaselineModeTakesMemFaults)
{
    auto spec = FaultSpec::parse("mem-lat=0.05:200");
    ASSERT_TRUE(spec.ok());
    FaultInjector faults(11, *spec);

    const RunResult res = runSpmv(Mode::Baseline, &faults);
    EXPECT_TRUE(res.verified);
    EXPECT_GT(faults.totals().injected, 0u);
}

TEST(FaultInjection, StatsAppearInTheSnapshot)
{
    auto spec = FaultSpec::parse("outq-stall=0.05:32");
    ASSERT_TRUE(spec.ok());
    FaultInjector faults(7, *spec);

    const RunResult res = runSpmv(Mode::Tmu, &faults);
    bool sawInjected = false, sawSite = false, sawTermination = false;
    for (const auto &e : res.stats.entries) {
        if (e.name == "faults.injected") {
            sawInjected = true;
            EXPECT_GT(e.u, 0u);
            EXPECT_EQ(e.u, faults.totals().injected);
        }
        if (e.name == "faults.outq-stall.injected") {
            sawSite = true;
            EXPECT_EQ(e.u, faults.counts(FaultKind::OutqStall).injected);
        }
        if (e.name == "sim.terminationReason") {
            sawTermination = true;
            EXPECT_EQ(e.u, 0u); // completed
        }
    }
    EXPECT_TRUE(sawInjected);
    EXPECT_TRUE(sawSite);
    EXPECT_TRUE(sawTermination);
}
