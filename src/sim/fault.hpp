/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * A seeded FaultInjector is threaded (borrowed, optional) through the
 * memory system and the TMU engine. Each injection site rolls an
 * independent xoshiro stream, so a given (seed, spec) pair replays the
 * exact same fault sequence run after run — a failure found under
 * injection is reproducible from its command line.
 *
 * Sites (all timing-only: none can corrupt simulated state, so a run
 * under injection must still verify against its reference kernel):
 *  - mem-lat:    extra latency on an accepted memory access;
 *  - drop-pf:    silently drop a prefetch candidate;
 *  - outq-stall: backpressure stall on outQ chunk consumption;
 *  - fill-delay: delay a TMU fill completion.
 *
 * Every injection is counted per site and in total (faults.*).
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/statreg.hpp"
#include "common/types.hpp"

namespace tmu::sim {

/**
 * Injection site identifiers. The value also keys the site's RNG
 * stream, so it is fixed per site: 3 belonged to a retired site and
 * stays unused so that fill-delay replays the same decisions.
 */
enum class FaultKind : int {
    MemLatencySpike = 0, //!< extra cycles on a memory access
    DropPrefetch = 1,    //!< discard a prefetch candidate
    OutqStall = 2,       //!< stall outQ consumption
    FillDelay = 4,       //!< delay a TMU fill completion
};

/** Every site, in spec/stat order. */
inline constexpr FaultKind kFaultKinds[] = {
    FaultKind::MemLatencySpike, FaultKind::DropPrefetch,
    FaultKind::OutqStall, FaultKind::FillDelay};

/** Array extent for per-site tables indexed by FaultKind value. */
inline constexpr std::size_t kFaultSlots =
    static_cast<std::size_t>(FaultKind::FillDelay) + 1;

/** Stable spec/stat name of a fault kind ("mem-lat"). */
const char *faultKindName(FaultKind k);

/** Per-site knobs. */
struct FaultSiteSpec
{
    double probability = 0.0; //!< per-opportunity injection chance
    Cycle extraCycles = 0;    //!< latency payload (site-dependent)
    std::uint64_t maxCount = ~std::uint64_t{0}; //!< injection budget
};

/** Whole-run fault plan. */
struct FaultSpec
{
    std::array<FaultSiteSpec, kFaultSlots> sites;

    const FaultSiteSpec &
    site(FaultKind k) const
    {
        return sites[static_cast<std::size_t>(k)];
    }
    FaultSiteSpec &
    site(FaultKind k)
    {
        return sites[static_cast<std::size_t>(k)];
    }

    /** True if any site has a nonzero probability. */
    bool any() const;

    /**
     * Parse "site=prob[:cycles][,site=prob[:cycles]...]", e.g.
     * "mem-lat=0.01:200,fill-delay=0.05:64". Unlisted sites stay off.
     */
    static Expected<FaultSpec> parse(const std::string &text);

    /** Render back to the parse() syntax (active sites only). */
    std::string describe() const;
};

/** Per-site injection accounting. */
struct FaultCounts
{
    std::uint64_t injected = 0;
};

/** Seeded, deterministic fault source shared by one simulation. */
class FaultInjector
{
  public:
    FaultInjector(std::uint64_t seed, const FaultSpec &spec);

    const FaultSpec &spec() const { return spec_; }
    std::uint64_t seed() const { return seed_; }

    /** Roll site @p k once; true if a fault fires now (counted). */
    bool shouldInject(FaultKind k);

    /** Latency payload of site @p k. */
    Cycle extraCycles(FaultKind k) const;

    const FaultCounts &counts(FaultKind k) const;

    /** Totals across all sites. */
    FaultCounts totals() const;

    /**
     * Register `injected` per active site plus the total under
     * @p prefix (e.g. "faults.").
     */
    void registerStats(stats::StatRegistry &reg,
                       const std::string &prefix) const;

  private:
    std::uint64_t seed_;
    FaultSpec spec_;
    std::array<Rng, kFaultSlots> rngs_;
    std::array<FaultCounts, kFaultSlots> counts_;
};

} // namespace tmu::sim
