/**
 * @file
 * Set-associative cache timing model with MSHRs.
 *
 * Tags-only (data values live in host memory); each level tracks
 * hit/miss state, LRU replacement, dirty bits, and a bounded set of
 * outstanding misses (MSHRs) that callers must respect — the MSHR
 * limits are what cap the memory-level parallelism of the baseline
 * core (paper Sec. 3) and what the TMU's 128 outstanding requests
 * bypass by reading from the LLC.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/statreg.hpp"
#include "common/types.hpp"
#include "sim/config.hpp"

namespace tmu::sim {

/** Result of a cache-level lookup. */
struct CacheAccess
{
    bool accepted = false; //!< false: MSHRs full, retry later
    bool hit = false;      //!< tag (or in-flight-miss merge) hit
    Cycle complete = 0;    //!< data-available cycle
};

/** MissFn return value meaning "the level below rejected the miss". */
inline constexpr Cycle kMissRejected = ~Cycle{0};

/** One cache level (tags + MSHRs). */
class Cache
{
  public:
    Cache() = default;
    Cache(std::string name, const CacheConfig &cfg);

    /**
     * Demand access.
     * @param line   cache-line address.
     * @param now    request cycle.
     * @param write  store (marks the line dirty on hit/fill).
     * @param missCompletion invoked only on a primary miss, with the
     *        cycle the request leaves this level; must return the fill
     *        completion cycle from below. The line is installed and an
     *        MSHR held until that cycle.
     * @param evicted out: set if a dirty victim was evicted (its line
     *        address is written through the pointer).
     */
    template <typename MissFn>
    CacheAccess
    access(Addr line, Cycle now, bool write, MissFn &&missCompletion,
           Addr *evictedDirty = nullptr)
    {
        reclaim(now);
        ++accesses_;

        // In-flight miss to the same line: merge (secondary miss).
        if (const Mshr *m = findMshr(line)) {
            ++mshrHits_;
            if (write)
                markDirty(line);
            return {true, true, m->second};
        }

        if (Way *way = findLine(line)) {
            ++hits_;
            way->lastUse = ++useClock_;
            way->dirty |= write;
            return {true, true, now + cfg_.latency};
        }

        // Primary miss: need an MSHR.
        if (static_cast<int>(mshrs_.size()) >= cfg_.mshrs) {
            ++rejects_;
            return {false, false, 0};
        }

        const Cycle fill = missCompletion(now + cfg_.latency);
        if (fill == kMissRejected) {
            ++rejects_;
            return {false, false, 0};
        }
        mshrs_.emplace_back(line, fill);
        nextReclaim_ = std::min(nextReclaim_, fill);
        ++misses_;
        install(line, write, evictedDirty);
        return {true, false, fill};
    }

    /**
     * Install a line directly (write-combined fill, e.g. the TMU outQ
     * writing whole chunks into the host core's L2). No fetch below.
     */
    void installDirect(Addr line, bool dirty, Addr *evictedDirty = nullptr);

    /** True if the line is currently present (test/introspection). */
    bool contains(Addr line) const;

    /** Outstanding (un-reclaimed) misses. */
    int inflight() const { return static_cast<int>(mshrs_.size()); }

    /** Free MSHR slots at @p now. */
    int
    freeMshrs(Cycle now)
    {
        reclaim(now);
        return cfg_.mshrs - static_cast<int>(mshrs_.size());
    }

    const std::string &name() const { return name_; }
    const CacheConfig &config() const { return cfg_; }
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return hits_ + mshrHits_; }
    std::uint64_t misses() const { return misses_; }
    /** Accesses bounced on a structural hazard (MSHRs full here or a
     *  level below); the requester retried them later. */
    std::uint64_t rejects() const { return rejects_; }
    /** Cycles spent servicing tag hits at this level's latency. */
    std::uint64_t
    hitServiceCycles() const
    {
        return hits_ * static_cast<std::uint64_t>(cfg_.latency);
    }

    double
    hitRate() const
    {
        return accesses_ ? static_cast<double>(hits()) /
                               static_cast<double>(accesses_)
                         : 0.0;
    }

    /** Drop all contents and statistics. */
    void reset();

    /**
     * Register this level's counters under @p prefix (e.g. "core0.l1.")
     * with human descriptions built from @p label (e.g. "L1D"). The
     * legacy set (accesses, hitRate) always registers, in the
     * historical dumpStats order; @p extended adds hits and misses for
     * the machine-readable exports.
     */
    void registerStats(stats::StatRegistry &reg,
                       const std::string &prefix,
                       const std::string &label, bool extended) const;

  private:
    struct Way
    {
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    /** An outstanding miss: (line, fill cycle). */
    using Mshr = std::pair<Addr, Cycle>;

    Way *findLine(Addr line);

    const Mshr *
    findMshr(Addr line) const
    {
        for (const Mshr &m : mshrs_) {
            if (m.first == line)
                return &m;
        }
        return nullptr;
    }

    void markDirty(Addr line);
    void install(Addr line, bool dirty, Addr *evictedDirty);
    void reclaim(Cycle now);

    std::size_t
    setOf(Addr line) const
    {
        // Mix upper bits so power-of-two strides do not alias badly.
        return static_cast<std::size_t>(
                   (line / kLineBytes) ^ (line / kLineBytes >> 17)) %
               numSets_;
    }

    std::string name_ = "cache";
    CacheConfig cfg_;
    std::size_t numSets_ = 1;
    std::vector<Way> ways_; //!< numSets x ways, row-major
    /**
     * Outstanding misses, unordered and keyed by line (at most
     * cfg.mshrs entries, so a linear find beats hashing). Order never
     * matters: lines are unique and reclaim only takes a minimum.
     */
    std::vector<Mshr> mshrs_;
    Cycle nextReclaim_ = ~Cycle{0};
    std::uint64_t useClock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t mshrHits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t rejects_ = 0;
};

} // namespace tmu::sim
