#include "core.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace tmu::sim {

namespace {

/** Issue-queue scan depth (entries from the ROB head considered). */
constexpr std::size_t kIssueWindow = 64;

/** How many immediately-preceding ops gate a branch's resolution. */
constexpr std::uint64_t kBranchDepWindow = 3;

} // namespace

void
CoreStats::registerStats(stats::StatRegistry &reg,
                         const std::string &prefix, bool summed,
                         bool extended) const
{
    reg.scalar(prefix + "cycles",
               summed ? "summed core cycles" : "core cycles", &cycles);
    reg.scalar(prefix + "commitCycles",
               "cycles retiring at least one op", &commitCycles);
    reg.scalar(prefix + "frontendStallCycles",
               "fetch-side stall cycles", &frontendStallCycles);
    reg.scalar(prefix + "backendStallCycles",
               "memory/resource stall cycles", &backendStallCycles);
    reg.scalar(prefix + "supplyWaitCycles",
               "of backend: instruction-supply (outQ) waits",
               &supplyWaitCycles);
    reg.scalar(prefix + "retiredOps", "micro-ops retired", &retiredOps);
    reg.scalar(prefix + "loads", "loads issued", &loads);
    reg.scalar(prefix + "stores", "stores issued", &stores);
    reg.scalar(prefix + "flops", "floating-point operations", &flops);
    reg.scalar(prefix + "branches", "branches", &branches);
    reg.scalar(prefix + "mispredicts", "branch mispredictions",
               &mispredicts);
    reg.formula(prefix + "avgLoadToUse",
                "average load-to-use latency (cycles)",
                [this] { return avgLoadToUse(); });
    if (extended) {
        reg.scalar(prefix + "loadLatencySum",
                   "sum of load (complete - issue) latencies",
                   &loadLatencySum);
        reg.scalar(prefix + "attr.retiring",
                   "cycles retiring at least one op", &attrRetiring);
        reg.scalar(prefix + "attr.frontendBound",
                   "cycles lost to fetch redirects / drained trace",
                   &attrFrontendBound);
        reg.scalar(prefix + "attr.backendMemL1",
                   "backend cycles on an L1-serviced or un-issued "
                   "memory op",
                   &attrBackendMemL1);
        reg.scalar(prefix + "attr.backendMemL2",
                   "backend cycles on an L2-serviced load",
                   &attrBackendMemL2);
        reg.scalar(prefix + "attr.backendMemLlc",
                   "backend cycles on an LLC-serviced load",
                   &attrBackendMemLlc);
        reg.scalar(prefix + "attr.backendMemDram",
                   "backend cycles on a DRAM-serviced load",
                   &attrBackendMemDram);
        reg.scalar(prefix + "attr.backendExec",
                   "backend cycles on a non-load at the ROB head",
                   &attrBackendExec);
        reg.scalar(prefix + "attr.outqEmpty",
                   "cycles starved for instruction supply (outQ empty)",
                   &attrOutqEmpty);
        reg.scalar(prefix + "supply.occupied",
                   "cycles the supply delivered at least one op",
                   &supplyOccupied);
        reg.scalar(prefix + "supply.starved",
                   "cycles a pull was attempted on an empty supply",
                   &supplyStarved);
        reg.scalar(prefix + "supply.backpressured",
                   "cycles the core could not accept supply",
                   &supplyBackpressured);
        reg.scalar(prefix + "supply.drained",
                   "cycles after the supply finished", &supplyDrained);
    }
}

Core::Core(int id, const CoreConfig &cfg, MemorySystem &mem)
    : id_(id), cfg_(cfg), mem_(mem), predictor_(cfg.ghistBits),
      rob_(static_cast<std::size_t>(cfg.robEntries))
{
}

void
Core::attach(TraceSource *source)
{
    source_ = source;
}

void
Core::setTracer(stats::TraceWriter *tracer, int pid)
{
    tracer_ = tracer;
    tracePid_ = pid;
}

bool
Core::depReady(const RobEntry &e, Cycle now) const
{
    if (e.op.depDist == 0)
        return true;
    if (e.seq < e.op.depDist)
        return true;
    const std::uint64_t prod = e.seq - e.op.depDist;
    if (prod < headSeq_)
        return true; // producer already retired
    const auto idx = static_cast<std::size_t>(prod - headSeq_);
    const RobEntry &p = rob_.peek(idx);
    return p.state == OpState::Complete && p.complete <= now;
}

void
Core::retire(Cycle now, int &retired)
{
    while (!rob_.empty() && retired < cfg_.commitWidth) {
        const RobEntry &head = rob_.peek(0);
        if (head.state != OpState::Complete || head.complete > now)
            break;
        if (head.op.kind == OpKind::Load)
            --loadsInFlight_;
        if (head.op.kind == OpKind::Store)
            --storesInFlight_;
        rob_.drop();
        ++headSeq_;
        ++retired;
        ++stats_.retiredOps;
    }
}

void
Core::issue(Cycle now)
{
    int issued = 0;
    int loadsIssued = 0, storesIssued = 0, fpIssued = 0;

    // Entries before issueSeq_ have all issued, and once every
    // un-issued entry has been seen the rest of the window holds none:
    // both skips leave the scan's outcome unchanged.
    const std::size_t window = std::min(rob_.size(), kIssueWindow);
    int unseen = dispatchedCount_;
    for (auto i = static_cast<std::size_t>(issueSeq_ - headSeq_);
         i < window && unseen > 0 && issued < cfg_.issueWidth; ++i) {
        RobEntry &e = rob_.peek(i);
        if (e.state != OpState::Dispatched)
            continue;
        --unseen;

        switch (e.op.kind) {
          case OpKind::Load: {
            if (loadsIssued >= cfg_.loadIssuePerCycle || !depReady(e, now))
                continue;
            MemAccess res = mem_.coreAccess(id_, e.op.addr, false, now);
            if (!res.accepted)
                continue; // L1 MSHRs full: retry next cycle
            --dispatchedCount_;
            Cycle complete = res.complete;
            int level = res.levelHit;
            if (linesTouched(e.op.addr, e.op.size) > 1) {
                const MemAccess res2 = mem_.coreAccess(
                    id_, lineAddr(e.op.addr) + kLineBytes, false, now);
                if (res2.accepted && res2.complete > complete) {
                    complete = res2.complete;
                    level = res2.levelHit;
                }
            }
            if (e.op.prodAddr != 0)
                mem_.observeIndirect(id_, e.op.prodAddr, e.op.addr, now);
            e.state = OpState::Complete;
            e.issued = now;
            e.complete = complete;
            e.level = static_cast<std::uint8_t>(level);
            ++stats_.loads;
            stats_.loadLatencySum += complete - now;
            ++loadsIssued;
            ++issued;
            break;
          }
          case OpKind::Store: {
            if (storesIssued >= cfg_.storeIssuePerCycle)
                continue;
            const MemAccess res =
                mem_.coreAccess(id_, e.op.addr, true, now);
            if (!res.accepted)
                continue;
            // Stores retire via the store buffer: completion is fast.
            --dispatchedCount_;
            e.state = OpState::Complete;
            e.issued = now;
            e.complete = now + 1;
            ++stats_.stores;
            ++storesIssued;
            ++issued;
            break;
          }
          case OpKind::Flop: {
            if (fpIssued >= cfg_.fpIssuePerCycle)
                continue;
            --dispatchedCount_;
            e.state = OpState::Complete;
            e.issued = now;
            e.complete = now + cfg_.fpLatency;
            stats_.flops += e.op.flops;
            ++fpIssued;
            ++issued;
            break;
          }
          case OpKind::Iop: {
            --dispatchedCount_;
            e.state = OpState::Complete;
            e.issued = now;
            e.complete = now + 1;
            ++issued;
            break;
          }
          case OpKind::Branch: {
            // A branch resolves once the few ops feeding its condition
            // have completed (data-dependent branches wait on loads).
            Cycle depComplete = 0;
            bool ready = true;
            const std::uint64_t lookback =
                std::min<std::uint64_t>(kBranchDepWindow,
                                        e.seq - headSeq_);
            for (std::uint64_t d = 1; d <= lookback; ++d) {
                const RobEntry &p =
                    rob_.peek(static_cast<std::size_t>(i) -
                              static_cast<std::size_t>(d));
                if (p.state != OpState::Complete) {
                    ready = false;
                    break;
                }
                depComplete = std::max(depComplete, p.complete);
            }
            if (!ready)
                continue;
            const Cycle resolve = std::max(
                {now + 1, depComplete + 1,
                 e.issued /*dispatchedAt*/ + cfg_.branchResolveMin});
            --dispatchedCount_;
            e.state = OpState::Complete;
            e.complete = resolve;
            ++issued;
            if (pendingMispredictSeq_ ==
                static_cast<std::int64_t>(e.seq)) {
                fetchBlockedUntil_ = resolve + cfg_.mispredictPenalty;
                pendingMispredictSeq_ = -1;
            }
            break;
          }
          case OpKind::Halt:
            --dispatchedCount_;
            e.state = OpState::Complete;
            e.complete = now;
            break;
        }
    }
    while (issueSeq_ < nextSeq_ &&
           rob_.peek(static_cast<std::size_t>(issueSeq_ - headSeq_))
                   .state != OpState::Dispatched)
        ++issueSeq_;
}

void
Core::dispatch(Cycle now)
{
    if (now < fetchBlockedUntil_ || pendingMispredictSeq_ >= 0)
        return;
    if (source_ == nullptr)
        return;

    int dispatched = 0;
    while (dispatched < cfg_.dispatchWidth && !rob_.full()) {
        if (!havePending_) {
            if (!source_->pullOp(pendingOp_, now)) {
                dispatchStarved_ = true;
                break; // source empty (or finished) this cycle
            }
            havePending_ = true;
            pulledThisTick_ = true;
        }
        // Structural checks that must hold before consuming the op.
        if (pendingOp_.kind == OpKind::Load &&
            loadsInFlight_ >= cfg_.loadQueue)
            break;
        if (pendingOp_.kind == OpKind::Store &&
            storesInFlight_ >= cfg_.storeQueue)
            break;

        RobEntry e;
        e.op = pendingOp_;
        e.seq = nextSeq_++;
        e.issued = now; // reused as dispatch stamp until issue
        havePending_ = false;

        if (e.op.kind == OpKind::Load)
            ++loadsInFlight_;
        if (e.op.kind == OpKind::Store)
            ++storesInFlight_;

        bool stopAfter = false;
        if (e.op.kind == OpKind::Branch) {
            ++stats_.branches;
            const bool correct =
                predictor_.predict(e.op.pc, e.op.taken);
            if (!correct) {
                ++stats_.mispredicts;
                pendingMispredictSeq_ =
                    static_cast<std::int64_t>(e.seq);
                stopAfter = true; // wrong path: fetch redirects later
            }
        }
        rob_.push(std::move(e));
        ++dispatchedCount_;
        ++dispatched;
        if (stopAfter)
            break;
    }
}

Cycle CoreStats::*
Core::backendAttrBucket() const
{
    // The in-order-retire blocker is the ROB head. A completed load
    // charges the level that serviced it; a completed non-load (or any
    // op still awaiting issue on a structural hazard) charges the
    // exec/L1 buckets — un-issued memory ops are L1-side hazards
    // (MSHRs, issue ports, address dependences).
    const RobEntry &head = rob_.peek(0);
    if (head.state == OpState::Complete) {
        if (head.op.kind == OpKind::Load) {
            switch (head.level) {
              case 2: return &CoreStats::attrBackendMemL2;
              case 3: return &CoreStats::attrBackendMemLlc;
              case 4: return &CoreStats::attrBackendMemDram;
              default: return &CoreStats::attrBackendMemL1;
            }
        }
        return &CoreStats::attrBackendExec;
    }
    if (head.op.kind == OpKind::Load || head.op.kind == OpKind::Store)
        return &CoreStats::attrBackendMemL1;
    return &CoreStats::attrBackendExec;
}

Cycle CoreStats::*
Core::supplyIdleBucket() const
{
    // Supply bucket for a cycle in which no op was pulled, evaluated
    // on post-tick state (used for both the live tick and sleep
    // windows, where that state is frozen).
    if (source_ == nullptr || source_->done())
        return &CoreStats::supplyDrained;
    if (dispatchStarved_)
        return &CoreStats::supplyStarved;
    return &CoreStats::supplyBackpressured;
}

bool
Core::tick(Cycle now)
{
    // Back-fill the cycles slept since the last tick: each was a
    // provable no-op whose only effect in the per-cycle loop was one
    // increment of `cycles` plus the stall bucket chosen when the
    // sleep was declared. This runs before the drained() check — the
    // supply can finish *while* the core is parked, and the slept
    // waiting cycles must still be charged.
    if (sleepBucket_ != nullptr && now > lastTicked_ + 1) {
        const Cycle gap = now - lastTicked_ - 1;
        stats_.cycles += gap;
        stats_.*sleepBucket_ += gap;
        if (sleepSupplyWait_)
            stats_.supplyWaitCycles += gap;
        stats_.*sleepAttr_ += gap;
        stats_.*sleepSupply_ += gap;
    }
    sleepBucket_ = nullptr;
    sleepSupplyWait_ = false;
    sleepAttr_ = nullptr;
    sleepSupply_ = nullptr;

    if (drained())
        return false;
    lastTicked_ = now;
    dispatchStarved_ = false;
    pulledThisTick_ = false;

    ++stats_.cycles;
    int retired = 0;
    retire(now, retired);
    issue(now);
    dispatch(now);

    const char *phase;
    Cycle CoreStats::*attr;
    if (retired > 0) {
        ++stats_.commitCycles;
        attr = &CoreStats::attrRetiring;
        phase = "commit";
    } else if (!rob_.empty()) {
        ++stats_.backendStallCycles;
        attr = backendAttrBucket();
        phase = "backend_stall";
    } else if (now < fetchBlockedUntil_ || pendingMispredictSeq_ >= 0) {
        ++stats_.frontendStallCycles;
        attr = &CoreStats::attrFrontendBound;
        phase = "frontend_stall";
    } else if (source_ != nullptr && !source_->done()) {
        // Waiting on the instruction supply (e.g. an outQ chunk the
        // TMU is still producing).
        ++stats_.backendStallCycles;
        ++stats_.supplyWaitCycles;
        attr = &CoreStats::attrOutqEmpty;
        phase = "backend_stall";
    } else {
        ++stats_.frontendStallCycles;
        attr = &CoreStats::attrFrontendBound;
        phase = "frontend_stall";
    }
    stats_.*attr += 1;
    Cycle CoreStats::*supply = pulledThisTick_
                                   ? &CoreStats::supplyOccupied
                                   : supplyIdleBucket();
    stats_.*supply += 1;
    if (tracer_ != nullptr)
        tracer_->phase(tracePid_, id_, phase, now);

    // Pre-compute the bucket any slept cycle will be charged to: the
    // phase logic above with retired == 0, evaluated on the post-tick
    // state — which is exactly what the per-cycle loop would see,
    // since that state is frozen for the whole no-op window.
    if (!rob_.empty()) {
        sleepBucket_ = &CoreStats::backendStallCycles;
        sleepAttr_ = backendAttrBucket();
    } else if (pendingMispredictSeq_ >= 0 ||
               fetchBlockedUntil_ > now + 1) {
        sleepBucket_ = &CoreStats::frontendStallCycles;
        sleepAttr_ = &CoreStats::attrFrontendBound;
    } else if (source_ != nullptr && !source_->done()) {
        sleepBucket_ = &CoreStats::backendStallCycles;
        sleepSupplyWait_ = true;
        sleepAttr_ = &CoreStats::attrOutqEmpty;
    } else {
        sleepBucket_ = &CoreStats::frontendStallCycles;
        sleepAttr_ = &CoreStats::attrFrontendBound;
    }
    // Slept cycles never pull, so the supply bucket is the no-pull
    // classification of the frozen state.
    sleepSupply_ = supplyIdleBucket();
    return true;
}

Cycle
Core::wakeHint(Cycle now) const
{
    if (tracer_ != nullptr)
        return now + 1; // the phase track must stay cycle-dense
    if (drained())
        return now + 1; // next tick returns false and retires us
    if (dispatchedCount_ > 0)
        return now + 1; // un-issued ops: issue may act any cycle

    // Every ROB entry is Complete: nothing happens before the head's
    // in-order retire deadline.
    Cycle wake = kWakeNever;
    if (!rob_.empty())
        wake = rob_.peek(0).complete;

    if (source_ != nullptr && !source_->done()) {
        if (fetchBlockedUntil_ > now + 1) {
            // Fetch redirect in flight: dispatch is dead until then.
            wake = std::min(wake, fetchBlockedUntil_);
        } else if (havePending_ || rob_.full()) {
            // Structural block (LQ/SQ/ROB full): dispatch can only
            // resume after a retire, and the retire deadline is
            // already a wake candidate (both conditions imply a
            // non-empty ROB).
        } else if (dispatchStarved_) {
            // Supply ran dry mid-tick: ask it when the next op could
            // possibly appear (kWakeNever = park until a chunk-sealed
            // consumer wake).
            wake = std::min(wake, source_->nextPullCycle(now));
        } else {
            return now + 1; // dispatch stopped for width only: stay hot
        }
    }
    if (wake == kWakeNever)
        return kWakeNever;
    return wake > now ? wake : now + 1;
}

void
Core::bindScheduler(Scheduler &sched, int handle)
{
    if (source_ != nullptr)
        source_->bindConsumer(sched, handle);
}

bool
Core::drained() const
{
    return rob_.empty() && !havePending_ &&
           (source_ == nullptr || source_->done());
}

} // namespace tmu::sim
