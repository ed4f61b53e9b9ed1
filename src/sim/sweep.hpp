/**
 * @file
 * Parallel sweep driver: runs N independent simulation tasks (one
 * System instance each) on a thread pool and hands every task's index
 * to the caller's closure, which writes its result into caller-owned,
 * pre-sized storage.
 *
 * Determinism contract: tasks must be mutually independent — each owns
 * its System, StatRegistry snapshot and FaultInjector — and results
 * are consumed *by index* after run() returns, so the output is
 * byte-identical for any job count. jobs <= 1 executes inline on the
 * calling thread (the legacy serial path, no threads involved).
 *
 * Each index runs exactly once: the simulator is deterministic, so a
 * re-run would replay the same result. Crash safety lives with the
 * caller (tmu_run journals each finished task through sim/journal.hpp
 * and resumes from it), and a stop request drains the pool rather than
 * abandoning running tasks.
 */

#pragma once

#include <cstddef>
#include <functional>

namespace tmu::sim {

class SweepRunner
{
  public:
    /** @p jobs worker threads; <= 1 runs inline, 0/negative clamp. */
    explicit SweepRunner(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

    int jobs() const { return jobs_; }

    /** Completion callback: (tasks finished so far, total tasks). */
    using ProgressFn =
        std::function<void(std::size_t, std::size_t)>;

    /** Cooperative-stop predicate, polled between tasks. */
    using StopFn = std::function<bool()>;

    /**
     * Run fn(0..count-1) to completion. With jobs > 1, indices are
     * pulled from a shared atomic counter by min(jobs, count) workers;
     * the first exception thrown by any task is re-thrown on the
     * calling thread after all workers join.
     *
     * @p onTaskDone (optional) fires after each task completes —
     * serialized under a lock, so it may touch shared state (progress
     * lines on stderr) — with the running completion count. It must
     * not throw.
     *
     * @p stopRequested (optional) is polled before each task is
     * pulled; once it returns true, no *new* task starts, but tasks
     * already in flight run to completion (a graceful drain — callers
     * decide what the skipped tail means). It must not throw.
     */
    void run(std::size_t count,
             const std::function<void(std::size_t)> &fn,
             const ProgressFn &onTaskDone = nullptr,
             const StopFn &stopRequested = nullptr) const;

    /** Worker threads the host can actually run concurrently. */
    static unsigned hardwareJobs();

    /**
     * Resolve a --jobs request: values <= 0 mean "one worker per
     * hardware thread" (never oversubscribes; the honesty rule for
     * reported speedups lives with the callers).
     */
    static int
    resolveJobs(int requested)
    {
        return requested > 0 ? requested
                             : static_cast<int>(hardwareJobs());
    }

  private:
    int jobs_;
};

} // namespace tmu::sim
