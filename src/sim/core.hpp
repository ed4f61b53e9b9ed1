/**
 * @file
 * Out-of-order core timing model.
 *
 * A deliberately compact OoO approximation that captures the effects
 * the paper's analysis rests on (Secs. 3 and 7):
 *  - bounded ROB/LSQ and L1 MSHRs cap memory-level parallelism;
 *  - in-order retirement lets a long-latency load at the ROB head fill
 *    the window (backend stalls);
 *  - a real gshare predictor sees the trace's real branch outcomes, so
 *    data-dependent traversal/merge branches flush the frontend;
 *  - vector µops carry multiple flops, modelling SVE.
 *
 * Every cycle is attributed to exactly one of commit / frontend stall /
 * backend stall, matching the Fig. 3 / Fig. 11 breakdowns.
 */

#pragma once

#include <cstdint>
#include <string>

#include "common/circular_queue.hpp"
#include "common/statreg.hpp"
#include "common/tracewriter.hpp"
#include "sim/branch.hpp"
#include "sim/config.hpp"
#include "sim/memsys.hpp"
#include "sim/microop.hpp"
#include "sim/sched.hpp"
#include "sim/tracesource.hpp"

namespace tmu::sim {

/** Per-core cycle and event counters. */
struct CoreStats
{
    Cycle cycles = 0;
    Cycle commitCycles = 0;
    Cycle frontendStallCycles = 0;
    Cycle backendStallCycles = 0;
    /** Of the backend stalls: cycles starved for instruction supply
     *  (a TMU core waiting for the engine to seal the next chunk). */
    Cycle supplyWaitCycles = 0;
    std::uint64_t retiredOps = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t flops = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t loadLatencySum = 0; //!< sum of (complete - issue)

    /**
     * Top-Down cycle attribution: every core cycle is charged to
     * exactly one bucket (attrSum() == cycles, checked per run). The
     * taxonomy refines the legacy commit/frontend/backend split — the
     * backend bucket is divided by where the ROB-head blocker was
     * serviced (L1/L2/LLC/DRAM for loads, exec otherwise) and supply
     * starvation gets its own outQ-empty bucket.
     */
    Cycle attrRetiring = 0;      //!< >= 1 op retired this cycle
    Cycle attrFrontendBound = 0; //!< fetch redirect / trace drained
    Cycle attrBackendMemL1 = 0;  //!< head load serviced by L1 / un-issued mem op
    Cycle attrBackendMemL2 = 0;  //!< head load serviced by L2
    Cycle attrBackendMemLlc = 0; //!< head load serviced by the LLC
    Cycle attrBackendMemDram = 0; //!< head load serviced by DRAM
    Cycle attrBackendExec = 0;   //!< head is a non-load awaiting its FU
    Cycle attrOutqEmpty = 0;     //!< starved for instruction supply

    /**
     * Instruction-supply (TraceSource/outQ) view of the same cycles:
     * also a full partition (supplySum() == cycles).
     */
    Cycle supplyOccupied = 0;      //!< >= 1 op pulled this cycle
    Cycle supplyStarved = 0;       //!< pull attempted, supply empty
    Cycle supplyBackpressured = 0; //!< core-side block, no pull tried
    Cycle supplyDrained = 0;       //!< supply finished (or detached)

    /** Sum of the top-down buckets; must equal cycles. */
    Cycle
    attrSum() const
    {
        return attrRetiring + attrFrontendBound + attrBackendMemL1 +
               attrBackendMemL2 + attrBackendMemLlc +
               attrBackendMemDram + attrBackendExec + attrOutqEmpty;
    }

    /** Sum of the supply buckets; must equal cycles. */
    Cycle
    supplySum() const
    {
        return supplyOccupied + supplyStarved + supplyBackpressured +
               supplyDrained;
    }

    double
    avgLoadToUse() const
    {
        return loads ? static_cast<double>(loadLatencySum) /
                           static_cast<double>(loads)
                     : 0.0;
    }

    /**
     * Register every counter under @p prefix, in the historical
     * dumpStats order/wording. @p summed selects the wording used for
     * the all-cores aggregate; @p extended adds loadLatencySum.
     */
    void registerStats(stats::StatRegistry &reg,
                       const std::string &prefix, bool summed,
                       bool extended) const;
};

/** One simulated out-of-order core. */
class Core : public Tickable
{
  public:
    Core(int id, const CoreConfig &cfg, MemorySystem &mem);

    /** Attach the micro-op supply (not owned). */
    void attach(TraceSource *source);

    /**
     * Attach a timeline tracer (not owned; nullptr detaches). The core
     * reports its per-cycle commit/frontend/backend attribution as a
     * phase track on (pid, tid = core id).
     */
    void setTracer(stats::TraceWriter *tracer, int pid);

    /** Advance one cycle. @retval false the core is fully drained. */
    bool tick(Cycle now) override;

    /**
     * Sleep-until hint (sim/sched.hpp): the core sleeps only through
     * provable no-op windows — all in-flight ops issued and merely
     * awaiting retirement, a fetch-redirect penalty, or instruction-
     * supply starvation — and back-fills the skipped cycles' stall
     * attribution on its next tick, so counters stay bit-identical to
     * the tick-every-cycle loop.
     */
    Cycle wakeHint(Cycle now) const override;

    /** Hand the supply a consumer-wake port (sealed-chunk wakes). */
    void bindScheduler(Scheduler &sched, int handle) override;

    /** True when the trace ended and the pipeline is empty. */
    bool drained() const;

    const CoreStats &stats() const { return stats_; }
    int id() const { return id_; }

    /** Live queue occupancies (watchdog diagnostics). */
    int robOccupancy() const { return static_cast<int>(rob_.size()); }
    int robCapacity() const { return cfg_.robEntries; }
    int loadQueueOccupancy() const { return loadsInFlight_; }
    int storeQueueOccupancy() const { return storesInFlight_; }

  private:
    enum class OpState : std::uint8_t { Dispatched, Issued, Complete };

    struct RobEntry
    {
        MicroOp op;
        OpState state = OpState::Dispatched;
        Cycle complete = 0;
        Cycle issued = 0;
        std::uint64_t seq = 0;
        /** Memory level that serviced a load (MemAccess::levelHit). */
        std::uint8_t level = 0;
    };

    void retire(Cycle now, int &retired);
    void issue(Cycle now);
    void dispatch(Cycle now);

    /** Top-down bucket a backend-stall cycle charges (ROB head). */
    Cycle CoreStats::*backendAttrBucket() const;
    /** Supply bucket a no-pull cycle charges (post-tick state). */
    Cycle CoreStats::*supplyIdleBucket() const;

    /** Is the producer of @p e's address complete by @p now? */
    bool depReady(const RobEntry &e, Cycle now) const;

    int id_;
    CoreConfig cfg_;
    MemorySystem &mem_;
    TraceSource *source_ = nullptr;
    GsharePredictor predictor_;

    CircularQueue<RobEntry> rob_;
    std::uint64_t nextSeq_ = 0;   //!< seq of the next dispatched op
    std::uint64_t headSeq_ = 0;   //!< seq of the ROB head
    /** seq of the oldest un-issued entry (nextSeq_ if none): entries
     *  only move forward in state, so issue starts its scan here. */
    std::uint64_t issueSeq_ = 0;
    int loadsInFlight_ = 0;       //!< load-queue occupancy
    int storesInFlight_ = 0;      //!< store-queue occupancy
    Cycle fetchBlockedUntil_ = 0; //!< mispredict redirect deadline
    /** seq of an unresolved mispredicted branch, -1 if none. */
    std::int64_t pendingMispredictSeq_ = -1;
    MicroOp pendingOp_{};  //!< pulled but not yet dispatched
    bool havePending_ = false;

    // Sleep/wake bookkeeping (event-driven scheduler).
    int dispatchedCount_ = 0; //!< ROB entries still awaiting issue
    bool dispatchStarved_ = false; //!< this tick ended on pullOp=false
    bool pulledThisTick_ = false;  //!< >= 1 successful pullOp this tick
    Cycle lastTicked_ = 0;
    /** Stall counter each slept cycle charges to (null = no sleep). */
    Cycle CoreStats::*sleepBucket_ = nullptr;
    bool sleepSupplyWait_ = false;
    /** Attribution/supply buckets each slept cycle charges to. */
    Cycle CoreStats::*sleepAttr_ = nullptr;
    Cycle CoreStats::*sleepSupply_ = nullptr;

    stats::TraceWriter *tracer_ = nullptr; //!< borrowed, may be null
    int tracePid_ = 0;

    CoreStats stats_;
};

} // namespace tmu::sim
