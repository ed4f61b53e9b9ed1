/**
 * @file
 * The repository benchmark runner (see README.md beside this file).
 *
 * Runs one workload — a fixed set of (kernel, input) cells — through
 * the library's public calls at the Fig. 10 bench configuration:
 * Workload::prepare for every cell (set-up, repeated several times),
 * then passes of Workload::run in Mode::Baseline and Mode::Tmu for
 * every cell, each run's stats snapshot serialised to JSON, for as many
 * passes as fit in --seconds. Everything runs on one host thread.
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 alternates
 * untraced and traced passes, adds the tensor and plan probes, and
 * reports the per-layer metrics, computed from spans recorded around
 * each public call plus the deterministic counters of the snapshots.
 *
 * Every run must verify against the workload's reference, terminate
 * normally, keep its cycle-attribution sum, and repeat its snapshot
 * exactly in every later pass (traced or not); a failing run makes
 * the result "correct": false and the exit status 1.
 *
 * Usage:
 *   tmu_perfbench --workload memory|compute|merge --seed N
 *                 --seconds S --trace 0|1 [--out results.json]
 *                 [--scale-mat D] [--scale-ten D] [--meta key=value]...
 */

#include <sched.h>
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/writers.hpp"
#include "plan/frontend/frontend.hpp"
#include "plan/lower.hpp"
#include "sim/config.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tensor/suite.hpp"
#include "workloads/partition.hpp"
#include "workloads/registry.hpp"

#ifndef TMU_BENCH_BUILD_TYPE
#define TMU_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef TMU_BENCH_COMPILER
#define TMU_BENCH_COMPILER "unknown"
#endif

using namespace tmu;
namespace wl = tmu::workloads;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kCores = 8;
/** Set-up repeats at least kMinSetupReps times and until it has taken
 *  kSetupSeconds in total, so even a 20 ms set-up gets a steady median. */
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 200;
constexpr double kSetupSeconds = 1.5;
/** Stop starting passes past this many seconds, whatever --seconds says. */
constexpr double kHardCapSeconds = 120.0;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Shortest round-trip decimal form of @p v (JSON number). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

struct KernelSpec
{
    const char *name; //!< registry name
    std::vector<std::string> inputs;
    double paperSpeedup; //!< EXPERIMENTS.md "paper" column
};

struct WorkloadSpec
{
    const char *name;
    std::vector<KernelSpec> kernels;
};

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    // Inputs trimmed from Fig. 10's full M1-M6 / T1-T4 sweep so one
    // pass fits the run length; each workload keeps its kernel set.
    static const std::vector<WorkloadSpec> specs = {
        {"memory",
         {{"SpMV", {"M1", "M3", "M4"}, 3.32},
          {"PR", {"M2", "M6"}, 2.74},
          {"MTTKRP_CP", {"T1"}, 4.01}}},
        // One input, so a 30 s run holds several passes to take the
        // median of; M1 doubles the pass and leaves one.
        {"compute", {{"SpMSpM", {"M6"}, 2.82}}},
        {"merge",
         {{"SpKAdd", {"M2", "M6"}, 6.98},
          {"TC", {"M1", "M4"}, 4.56},
          {"SpTC", {"T1", "T2"}, 3.79}}},
    };
    return specs;
}

// ---------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string out;
    Index scaleMat = 128;
    Index scaleTen = 64;
    std::vector<std::pair<std::string, std::string>> meta;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "tmu_perfbench: %s\n"
                 "usage: tmu_perfbench --workload memory|compute|merge "
                 "--seed N --seconds S --trace 0|1\n"
                 "         [--out FILE] [--scale-mat D] [--scale-ten D] "
                 "[--meta key=value]...\n",
                 why);
    std::exit(2);
}

bool
parseU64(const char *s, std::uint64_t &v)
{
    const char *e = s + std::strlen(s);
    const auto r = std::from_chars(s, e, v);
    return r.ec == std::errc() && r.ptr == e && e != s;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        std::uint64_t u = 0;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            if (!parseU64(v, o.seed))
                usage("--seed takes a whole number");
        } else if (a == "--seconds") {
            if (!parseU64(v, u) || u < 1 || u > 3600)
                usage("--seconds takes a whole number from 1 to 3600");
            o.seconds = static_cast<double>(u);
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace takes 0 or 1");
            o.trace = v[0] - '0';
        } else if (a == "--out") {
            o.out = v;
        } else if (a == "--scale-mat" || a == "--scale-ten") {
            if (!parseU64(v, u) || u < 1 || u > (1u << 20))
                usage("scale divisors are whole numbers >= 1");
            (a == "--scale-mat" ? o.scaleMat : o.scaleTen) =
                static_cast<Index>(u);
        } else if (a == "--meta") {
            const char *eq = std::strchr(v, '=');
            if (eq == nullptr)
                usage("--meta takes key=value");
            o.meta.emplace_back(std::string(v, eq), std::string(eq + 1));
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }
    if (o.workload.empty() || o.seconds <= 0.0 || o.trace < 0)
        usage("--workload, --seed, --seconds and --trace are required");
    return o;
}

// ---------------------------------------------------------------------
// Tracing: spans from this file around each public call
// ---------------------------------------------------------------------

struct Span
{
    const char *name = "";
    const char *layer = "";
    std::int64_t begNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    int cell = -1; //!< spans of one (kernel, input) cell share it
};

/** In-memory span recorder; a no-op when constructed off. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}

    bool on() const { return on_; }
    const std::vector<Span> &spans() const { return spans_; }

    int
    begin(const char *name, const char *layer, int cell)
    {
        if (!on_)
            return -1;
        Span s;
        s.name = name;
        s.layer = layer;
        s.parent = open_.empty() ? -1 : open_.back();
        s.cell = cell >= 0 || s.parent < 0
                     ? cell
                     : spans_[static_cast<std::size_t>(s.parent)].cell;
        s.begNs = nowNs();
        spans_.push_back(s);
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].endNs = nowNs();
        open_.pop_back();
    }

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0_)
            .count();
    }

    bool on_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: begins on construction, ends on destruction. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, const char *name, const char *layer,
              int cell = -1)
        : t_(t), id_(t.begin(name, layer, cell))
    {
    }
    ~SpanScope() { t_.end(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

double
spanSeconds(const Span &s)
{
    return static_cast<double>(s.endNs - s.begNs) * 1e-9;
}

// ---------------------------------------------------------------------
// The cells and their configuration
// ---------------------------------------------------------------------

struct Cell
{
    int id = 0;
    const KernelSpec *kernel = nullptr;
    std::string input;
    bool tensorInput = false;
    std::unique_ptr<wl::Workload> workload;
};

/**
 * The fig10_speedups bench configuration: Table-5 system, 8 cores,
 * rows partition, event scheduler, caches shrunk by the input family's
 * scale divisor (floors keep every cache structurally valid).
 */
wl::RunConfig
benchConfig(Index scaleDiv)
{
    wl::RunConfig cfg;
    auto shrink = [&](std::uint64_t bytes, std::uint64_t floor) {
        return std::max<std::uint64_t>(
            floor, bytes / static_cast<std::uint64_t>(scaleDiv));
    };
    cfg.system.l1.sizeBytes = shrink(cfg.system.l1.sizeBytes, 2048);
    cfg.system.l2.sizeBytes = shrink(cfg.system.l2.sizeBytes, 2048);
    cfg.system.llcSlice.sizeBytes =
        shrink(cfg.system.llcSlice.sizeBytes, 4096);
    cfg.system.cores = kCores;
    cfg.system.schedDense = false;
    cfg.partition = wl::PartitionKind::Rows;
    return cfg;
}

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h)
{
    return fnv1a(s.data(), s.size(), h);
}

/** Exact fingerprint of a snapshot: every name and value bit. */
std::uint64_t
snapshotFingerprint(const stats::StatSnapshot &snap)
{
    std::uint64_t h = kFnvBasis;
    for (const auto &e : snap.entries) {
        h = fnv1a(e.name, h);
        h = fnv1a(&e.u, sizeof e.u, h);
        h = fnv1a(&e.f, sizeof e.f, h);
    }
    return h;
}

double
stat(const stats::StatSnapshot &snap, const std::string &name)
{
    const stats::SnapshotEntry *e = snap.find(name);
    return e ? e->value() : 0.0;
}

/** Sum of @p unit<digits>@p suffix entries, e.g. core3.l1.hits. */
double
sumUnits(const stats::StatSnapshot &snap, const char *unit,
         const char *suffix)
{
    const std::size_t ul = std::strlen(unit);
    const std::size_t sl = std::strlen(suffix);
    double sum = 0.0;
    for (const auto &e : snap.entries) {
        const std::string &n = e.name;
        if (n.size() <= ul + sl || n.compare(0, ul, unit) != 0 ||
            n.compare(n.size() - sl, sl, suffix) != 0)
            continue;
        const std::size_t digits = n.size() - ul - sl;
        if (digits == 0 ||
            n.find_first_not_of("0123456789", ul) != ul + digits)
            continue;
        sum += e.value();
    }
    return sum;
}

/** Sum of every entry whose name starts with @p prefix. */
double
sumPrefix(const stats::StatSnapshot &snap, const std::string &prefix)
{
    double sum = 0.0;
    for (const auto &e : snap.entries) {
        if (e.name.compare(0, prefix.size(), prefix) == 0)
            sum += e.value();
    }
    return sum;
}

// ---------------------------------------------------------------------
// One simulated run, checked
// ---------------------------------------------------------------------

struct RunRecord
{
    wl::Mode mode = wl::Mode::Baseline;
    double hostSeconds = 0.0;
    std::uint64_t fingerprint = 0;
    std::string failure; //!< empty = passed every check
    double cycles = 0.0;
    bool verified = false;
    stats::StatSnapshot stats;
};

/** The model-side checks of one run (no pinned values). */
std::string
checkRun(const wl::RunResult &r)
{
    if (!r.verified)
        return "outputs differ from the reference";
    if (!r.sim.completed() || stat(r.stats, "sim.terminationReason") != 0)
        return std::string("terminated: ") +
               sim::terminationName(r.sim.termination);
    if (r.sim.cycles == 0)
        return "zero simulated cycles";
    const double attr = sumPrefix(r.stats, "cores.attr.");
    const double coreCycles = stat(r.stats, "cores.cycles");
    if (attr != coreCycles)
        return "cycle attribution sum " + num(attr) +
               " != cores.cycles " + num(coreCycles);
    return {};
}

struct PassResult
{
    double seconds = 0.0;
    bool traced = false;
    /** cells x {base, tmu}, in cell-id order. */
    std::vector<RunRecord> runs;
};

PassResult
runPass(std::vector<Cell> &cells, const std::vector<int> &order,
        const Options &o, Tracer &tr, bool keepStats)
{
    PassResult pr;
    pr.traced = tr.on();
    pr.runs.resize(cells.size() * 2);
    const auto t0 = Clock::now();
    SpanScope passSpan(tr, "pass", "bench");
    for (const int id : order) {
        Cell &c = cells[static_cast<std::size_t>(id)];
        SpanScope cellSpan(tr, "cell", "bench", c.id);
        wl::RunConfig cfg =
            benchConfig(c.tensorInput ? o.scaleTen : o.scaleMat);
        for (const wl::Mode mode : {wl::Mode::Baseline, wl::Mode::Tmu}) {
            const bool tmuMode = mode == wl::Mode::Tmu;
            RunRecord &rec =
                pr.runs[static_cast<std::size_t>(id) * 2 + tmuMode];
            rec.mode = mode;
            cfg.mode = mode;
            const auto r0 = Clock::now();
            wl::RunResult r;
            {
                SpanScope s(tr, tmuMode ? "run.tmu" : "run.base",
                            "workloads");
                r = c.workload->run(cfg);
            }
            {
                SpanScope s(tr, "statsJson", "common");
                const std::string js = stats::renderStatsJson(r.stats);
                if (js.empty())
                    rec.failure = "empty stats export";
            }
            rec.hostSeconds = secondsSince(r0);
            rec.fingerprint = snapshotFingerprint(r.stats);
            if (rec.failure.empty())
                rec.failure = checkRun(r);
            rec.cycles = static_cast<double>(r.sim.cycles);
            rec.verified = r.verified;
            if (keepStats)
                rec.stats = std::move(r.stats);
        }
    }
    pr.seconds = secondsSince(t0);
    return pr;
}

// ---------------------------------------------------------------------
// Probes (traced run only): tensor generation, einsum compile + lower
// ---------------------------------------------------------------------

/** compileEinsum + lowerProgram for every core's span of one cell. */
void
probePlan(Tracer &tr, const char *expr,
          const plan::frontend::EinsumBindings &fb, Index total,
          const Index *prefix, plan::Variant variant)
{
    const wl::Partition part =
        wl::makePartition(wl::PartitionKind::Rows, total, prefix, kCores);
    for (int c = 0; c < kCores; ++c) {
        const auto [beg, end] = part.range(c);
        plan::frontend::CompileOptions fo;
        fo.beg = beg;
        fo.end = end;
        fo.variant = variant;
        Expected<plan::PlanSpec> ps = [&] {
            SpanScope s(tr, "compileEinsum", "plan");
            return plan::frontend::compileEinsum(expr, fb, fo);
        }();
        const plan::PlanSpec spec = std::move(ps).valueOrFatal();
        SpanScope s(tr, "lowerProgram", "plan");
        const engine::TmuProgram prog = plan::lowerProgram(spec);
        (void)prog;
    }
}

/**
 * Operands shaped like the ones each einsum-compiled workload binds,
 * built from the same suite generators; SpTC never reaches plan.
 */
void
probeCellPlan(Tracer &tr, const Cell &c, const Options &o)
{
    const std::string k = c.kernel->name;
    plan::frontend::EinsumBindings fb;
    if (k == "SpMV" || k == "PR") {
        tensor::CsrMatrix a;
        {
            SpanScope s(tr, "operands", "bench");
            a = tensor::matrixInput(c.input).generate(o.scaleMat);
        }
        tensor::DenseVector x(a.cols(), 0.5), z(a.rows());
        fb.csr["A"] = &a;
        fb.outVec = &z;
        const char *expr = "Z(i) = A(i,j; csr) * B(j; dense)";
        if (k == "PR") {
            expr = "Z(i) = beta + alpha * A(i,j; csr) * X(j; dense)";
            fb.vec["X"] = &x;
            fb.scalars["alpha"] = 0.85;
            fb.scalars["beta"] = 0.15 / static_cast<double>(a.rows());
        } else {
            fb.vec["B"] = &x;
        }
        probePlan(tr, expr, fb, a.rows(), a.ptrs().data(),
                  plan::Variant::P1);
    } else if (k == "SpMSpM" || k == "TC" || k == "SpKAdd") {
        tensor::CsrMatrix a, b;
        std::vector<tensor::DcsrMatrix> parts;
        {
            SpanScope s(tr, "operands", "bench");
            const Index div = k == "SpKAdd" ? o.scaleMat : o.scaleMat * 4;
            a = tensor::matrixInput(c.input).generate(div);
            if (k == "SpMSpM")
                b = tensor::transposeCsr(a);
            else if (k == "TC")
                a = tensor::lowerTriangle(a);
            else
                parts = tensor::splitCyclic(a, 8);
        }
        if (k == "SpMSpM") {
            fb.csr["A"] = &a;
            fb.csr["B"] = &b;
            probePlan(tr, "Z(i,j; csr) = A(i,k; csr) * B(k,j; csr)", fb,
                      a.rows(), a.ptrs().data(), plan::Variant::P1);
        } else if (k == "TC") {
            fb.csr["L"] = &a;
            probePlan(tr, "c = L(i,k; csr) * L(k,j; csr) * L(i,j; csr)",
                      fb, a.rows(), a.ptrs().data(), plan::Variant::P1);
        } else {
            fb.ensembles["A^k"] = &parts;
            probePlan(tr, "Z(i,j; dcsr) = sum_k A^k(i,j; dcsr)", fb,
                      a.rows(), a.ptrs().data(), plan::Variant::P1);
        }
    } else if (k == "MTTKRP_CP") {
        tensor::CooTensor t;
        {
            SpanScope s(tr, "operands", "bench");
            t = tensor::tensorInput(c.input).generate(o.scaleTen);
        }
        constexpr Index kRank = 16;
        tensor::DenseMatrix b(t.dim(1), kRank), cm(t.dim(2), kRank),
            z(t.dim(0), kRank);
        fb.coo["A"] = &t;
        fb.mat["B"] = &b;
        fb.mat["C"] = &cm;
        fb.outMat = &z;
        probePlan(tr,
                  "Z(i,j) = A(i,k,l; coo) * B(k,j; dense) * "
                  "C(l,j; dense)",
                  fb, t.nnz(), nullptr, plan::Variant::P2);
    }
}

/** Runs the tensor and plan probes; returns the generated inputs' nnz. */
double
runProbes(Tracer &tr, const std::vector<Cell> &cells, const Options &o)
{
    double nnz = 0.0;
    {
        SpanScope root(tr, "probe.tensor", "bench");
        std::set<std::string> seen;
        for (const Cell &c : cells) {
            if (!seen.insert(c.input).second)
                continue;
            SpanScope cs(tr, "input", "bench", c.id);
            if (c.tensorInput) {
                SpanScope s(tr, "generate", "tensor");
                nnz += static_cast<double>(
                    tensor::tensorInput(c.input).generate(o.scaleTen).nnz());
            } else {
                SpanScope s(tr, "generate", "tensor");
                nnz += static_cast<double>(
                    tensor::matrixInput(c.input).generate(o.scaleMat).nnz());
            }
        }
    }
    SpanScope root(tr, "probe.plan", "bench");
    for (const Cell &c : cells) {
        SpanScope cs(tr, "cell", "bench", c.id);
        probeCellPlan(tr, c, o);
    }
    return nnz;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

using Metrics = std::vector<Metric>;

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (const double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

double
ratio(double a, double b, double ifZero = 0.0)
{
    return b != 0.0 ? a / b : ifZero;
}

/** Geomean over cells of base/TMU cycles. */
double
simSpeedup(const std::vector<Cell> &cells, const PassResult &p)
{
    std::vector<double> v;
    for (const Cell &c : cells) {
        const auto i = static_cast<std::size_t>(c.id) * 2;
        v.push_back(ratio(p.runs[i].cycles, p.runs[i + 1].cycles, 1.0));
    }
    return geomean(v);
}

/** |simulated - paper| / paper speedup geomean, in percent. */
double
paperErrPct(const std::vector<Cell> &cells, double speedup)
{
    std::vector<double> paper;
    for (const Cell &c : cells)
        paper.push_back(c.kernel->paperSpeedup);
    const double ref = geomean(paper);
    return 100.0 * std::abs(speedup - ref) / ref;
}

/** Deterministic per-layer counts, summed over one pass's runs. */
Metrics
countMetrics(const std::vector<Cell> &cells, const PassResult &p)
{
    double cyc[2] = {0, 0}, ops[2] = {0, 0};
    double events = 0, wakeups = 0, skipped = 0, coreCycles = 0;
    double branches = 0, mispredicts = 0, loadLat = 0, loads = 0;
    double l1h = 0, l1a = 0, l2h = 0, l2a = 0, llcm = 0, llca = 0;
    double l1m = 0, l2m = 0, rejects = 0;
    double rd = 0, wr = 0, dq = 0, rowHits = 0, dacc = 0, gbsCyc = 0;
    double req = 0, coal = 0, recs = 0, chunks = 0, busy = 0;
    double engineCycles = 0;
    double rwSum = 0, rwChunks = 0, imbalance = 0;
    static const char *coreAttr[] = {
        "retiring",       "frontendBound",  "backendMemL1",
        "backendMemL2",   "backendMemLlc",  "backendMemDram",
        "backendExec",    "outqEmpty"};
    static const char *tmuAttr[] = {"fill", "traverse", "drain",
                                    "memsysStall", "backpressure"};
    double coreAttrSum[8] = {}, tmuAttrSum[5] = {};
    for (const RunRecord &r : p.runs) {
        const stats::StatSnapshot &s = r.stats;
        const int m = r.mode == wl::Mode::Tmu;
        const double cycles = stat(s, "sim.cycles");
        cyc[m] += cycles;
        ops[m] += stat(s, "cores.retiredOps");
        events += stat(s, "sim.scheduler.eventsDispatched");
        wakeups += stat(s, "sim.scheduler.wakeups");
        skipped += stat(s, "sim.scheduler.idleCyclesSkipped");
        coreCycles += stat(s, "cores.cycles");
        for (int b = 0; b < 8; ++b)
            coreAttrSum[b] +=
                stat(s, std::string("cores.attr.") + coreAttr[b]);
        branches += stat(s, "cores.branches");
        mispredicts += stat(s, "cores.mispredicts");
        loadLat += stat(s, "cores.loadLatencySum");
        loads += stat(s, "cores.loads");
        l1h += sumUnits(s, "core", ".l1.hits");
        l1a += sumUnits(s, "core", ".l1.accesses");
        l1m += sumUnits(s, "core", ".l1.misses");
        l2h += sumUnits(s, "core", ".l2.hits");
        l2a += sumUnits(s, "core", ".l2.accesses");
        l2m += sumUnits(s, "core", ".l2.misses");
        rejects += sumUnits(s, "core", ".l1.mshrRejects") +
                   sumUnits(s, "core", ".l2.mshrRejects");
        llcm += stat(s, "llc.misses");
        llca += stat(s, "llc.accesses");
        rd += stat(s, "dram.readBytes");
        wr += stat(s, "dram.writeBytes");
        dq += stat(s, "dram.queueCycles");
        rowHits += stat(s, "dram.rowHits");
        dacc += stat(s, "dram.accesses");
        gbsCyc += stat(s, "sim.achievedGBs") * cycles;
        imbalance += stat(s, "cores.balance.imbalanceRatio");
        if (m) {
            req += sumUnits(s, "tmu", ".requestsIssued");
            coal += sumUnits(s, "tmu", ".coalescedLoads");
            recs += sumUnits(s, "tmu", ".recordsEmitted");
            chunks += sumUnits(s, "tmu", ".chunksSealed");
            busy += sumUnits(s, "tmu", ".busyCycles");
            rwChunks += sumUnits(s, "tmu", ".rwChunks");
            for (int b = 0; b < 5; ++b) {
                tmuAttrSum[b] += sumUnits(
                    s, "tmu", (std::string(".attr.") + tmuAttr[b]).c_str());
            }
            // Per engine: its cycles, and its outQ read-to-write ratio
            // weighted by the chunks it was measured over.
            for (const auto &e : s.entries) {
                if (e.name.compare(0, 3, "tmu") != 0)
                    continue;
                const std::string engine = e.name.substr(0, e.name.find('.'));
                if (e.name == engine + ".busyCycles")
                    engineCycles += cycles;
                else if (e.name == engine + ".readToWriteRatio")
                    rwSum += e.value() * stat(s, engine + ".rwChunks");
            }
        }
    }
    double tmuAttrTotal = 0.0;
    for (const double v : tmuAttrSum)
        tmuAttrTotal += v;

    Metrics m = {
        {"workloads.tmu_speedup", simSpeedup(cells, p), "ratio"},
        {"workloads.imbalance",
         ratio(imbalance, static_cast<double>(p.runs.size())), "ratio"},
        {"sim.cycles.base", cyc[0], "cycles"},
        {"sim.cycles.tmu", cyc[1], "cycles"},
        {"sim.sched.events", events, "count"},
        {"sim.sched.wakeups", wakeups, "count"},
        {"sim.sched.skip_frac", ratio(skipped, skipped + events), "ratio"},
        {"sim.core.retired_ops.base", ops[0], "count"},
        {"sim.core.retired_ops.tmu", ops[1], "count"},
    };
    for (int b = 0; b < 8; ++b) {
        m.push_back({std::string("sim.core.attr.") + coreAttr[b] + "_frac",
                     ratio(coreAttrSum[b], coreCycles), "ratio"});
    }
    m.insert(m.end(), {
        {"sim.core.branch_hit_frac", 1.0 - ratio(mispredicts, branches),
         "ratio"},
        {"sim.core.load_to_use", ratio(loadLat, loads), "cycles"},
        {"sim.cache.l1.hit_frac", ratio(l1h, l1a), "ratio"},
        {"sim.cache.l2.hit_frac", ratio(l2h, l2a), "ratio"},
        {"sim.cache.llc.hit_frac", 1.0 - ratio(llcm, llca), "ratio"},
        {"sim.cache.l1.misses", l1m, "count"},
        {"sim.cache.l2.misses", l2m, "count"},
        {"sim.cache.llc.misses", llcm, "count"},
        {"sim.cache.mshr_rejects", rejects, "count"},
        {"sim.memsys.dram_read_bytes", rd, "bytes"},
        {"sim.memsys.dram_write_bytes", wr, "bytes"},
        {"sim.memsys.dram_queue_cycles", dq, "cycles"},
        {"sim.memsys.row_hit_frac", ratio(rowHits, dacc), "ratio"},
        {"sim.memsys.achieved_gbs", ratio(gbsCyc, cyc[0] + cyc[1]),
         "GB/s"},
        {"tmu.requests", req, "count"},
        {"tmu.coalesce_frac", ratio(coal, coal + req), "ratio"},
        {"tmu.records", recs, "count"},
        {"tmu.chunks", chunks, "count"},
        {"tmu.busy_frac", ratio(busy, engineCycles), "ratio"},
    });
    for (int b = 0; b < 5; ++b) {
        m.push_back({std::string("tmu.attr.") + tmuAttr[b] + "_frac",
                     ratio(tmuAttrSum[b], tmuAttrTotal), "ratio"});
    }
    m.push_back({"tmu.rw_ratio", ratio(rwSum, rwChunks), "ratio"});
    return m;
}

/**
 * Host-time metrics from the spans. Each root span is one repetition
 * of its kind (a set-up rep, a traced pass, a probe); a layer's figure
 * is the median over the repetitions of each kind, summed over kinds.
 */
Metrics
spanMetrics(const Tracer &tr, double events)
{
    const std::vector<Span> &sp = tr.spans();
    std::vector<int> root(sp.size(), -1);
    std::vector<double> childSec(sp.size(), 0.0);
    for (std::size_t i = 0; i < sp.size(); ++i) {
        const int p = sp[i].parent;
        root[i] = p < 0 ? static_cast<int>(i)
                        : root[static_cast<std::size_t>(p)];
        if (p >= 0)
            childSec[static_cast<std::size_t>(p)] += spanSeconds(sp[i]);
    }
    // Per root kind: the roots seen, and quantity -> per-root totals.
    std::map<std::string, std::set<int>> roots;
    std::map<std::string, std::map<std::string, std::map<int, double>>>
        acc;
    for (std::size_t i = 0; i < sp.size(); ++i) {
        const int r = root[i];
        const std::string kind = sp[static_cast<std::size_t>(r)].name;
        roots[kind].insert(r);
        auto &q = acc[kind];
        q[std::string(sp[i].layer) + ".self_s"][r] +=
            spanSeconds(sp[i]) - childSec[i];
        q[std::string("span.") + sp[i].name][r] += spanSeconds(sp[i]);
    }
    auto total = [&](const std::string &quantity) {
        double sum = 0.0;
        for (const auto &[kind, quantities] : acc) {
            const auto it = quantities.find(quantity);
            if (it == quantities.end())
                continue;
            std::vector<double> v;
            for (const int r : roots.at(kind)) {
                const auto x = it->second.find(r);
                v.push_back(x == it->second.end() ? 0.0 : x->second);
            }
            sum += median(v);
        }
        return sum;
    };
    const double runBase = total("span.run.base");
    const double runTmu = total("span.run.tmu");
    return {
        {"tensor.generate_s", total("span.generate"), "s"},
        {"workloads.prepare_s", total("span.prepare"), "s"},
        {"workloads.run_base_s", runBase, "s"},
        {"workloads.run_tmu_s", runTmu, "s"},
        {"plan.compile_s", total("span.compileEinsum"), "s"},
        {"plan.lower_s", total("span.lowerProgram"), "s"},
        {"common.export_s", total("span.statsJson"), "s"},
        {"sim.ns_per_event", ratio((runBase + runTmu) * 1e9, events),
         "ns"},
        {"bench.self_s", total("bench.self_s"), "s"},
        {"tensor.self_s", total("tensor.self_s"), "s"},
        {"workloads.self_s", total("workloads.self_s"), "s"},
        {"plan.self_s", total("plan.self_s"), "s"},
        {"common.self_s", total("common.self_s"), "s"},
    };
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 0;
    return CPU_COUNT(&set);
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

void
printTable(const char *title, const Metrics &m)
{
    std::printf("%s\n", title);
    for (const Metric &x : m)
        std::printf("  %-36s %18.6g  %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
}

void
writeMetrics(stats::JsonWriter &jw, const Metrics &m)
{
    jw.beginObject();
    for (const Metric &x : m) {
        jw.key(x.name).beginObject();
        jw.key("value").value(x.value);
        jw.key("unit").value(x.unit);
        jw.endObject();
    }
    jw.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : workloadSpecs()) {
        if (o.workload == w.name)
            spec = &w;
    }
    if (spec == nullptr)
        usage(("unknown workload '" + o.workload + "'").c_str());
    const auto start = Clock::now();
    std::setvbuf(stdout, nullptr, _IOLBF, 0);

    std::vector<Cell> cells;
    for (const KernelSpec &k : spec->kernels) {
        for (const std::string &in : k.inputs) {
            Cell c;
            c.id = static_cast<int>(cells.size());
            c.kernel = &k;
            c.input = in;
            c.tensorInput = in[0] == 'T';
            cells.push_back(std::move(c));
        }
    }

    // The seed fixes the order cells are simulated in; the inputs
    // themselves are the fixed Table-6 surrogates. Set-up keeps the
    // cell-list order so the peak resident set does not depend on it.
    std::mt19937_64 rng(o.seed);
    auto shuffled = [&] {
        std::vector<int> order(cells.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = static_cast<int>(i);
        std::shuffle(order.begin(), order.end(), rng);
        return order;
    };

    Tracer tracer(o.trace == 1);

    // Set-up: every cell's prepare(), repeated; the last rep's
    // workloads are the ones simulated.
    std::vector<double> setupReps;
    double setupTotal = 0.0;
    for (int rep = 0; rep < kMinSetupReps ||
                      (setupTotal < kSetupSeconds && rep < kMaxSetupReps);
         ++rep) {
        for (Cell &c : cells)
            c.workload.reset();
#ifdef __GLIBC__
        // Hand the freed inputs back so the peak resident set does not
        // depend on how earlier reps fragmented the heap.
        malloc_trim(0);
#endif
        SpanScope repSpan(tracer, "setup", "bench");
        const auto t0 = Clock::now();
        for (Cell &c : cells) {
            SpanScope cs(tracer, "cell", "bench", c.id);
            {
                SpanScope s(tracer, "makeWorkload", "workloads");
                c.workload = wl::makeWorkload(c.kernel->name);
            }
            SpanScope s(tracer, "prepare", "workloads");
            c.workload->prepare(c.input,
                                c.tensorInput ? o.scaleTen : o.scaleMat);
        }
        setupReps.push_back(secondsSince(t0));
        setupTotal += setupReps.back();
    }

    const double probeNnz = tracer.on() ? runProbes(tracer, cells, o) : 0.0;

    // Simulation passes. Untraced runs time the end-to-end metrics;
    // with --trace 1 every untraced pass is followed by a traced one.
    Tracer off(false);
    std::vector<PassResult> passes;
    const auto simStart = Clock::now();
    for (;;) {
        const bool first = passes.empty();
        const std::vector<int> order = shuffled();
        passes.push_back(runPass(cells, order, o, off, first));
        if (tracer.on())
            passes.push_back(runPass(cells, order, o, tracer, false));
        const double elapsed = secondsSince(simStart);
        const double perStep =
            elapsed / static_cast<double>(tracer.on() ? passes.size() / 2
                                                      : passes.size());
        if (elapsed + perStep > o.seconds ||
            secondsSince(start) + perStep > kHardCapSeconds)
            break;
    }

    // Correctness: every run checked, and every pass's snapshots equal
    // the first (untraced) pass's, traced passes included.
    const PassResult &ref = passes.front();
    std::uint64_t attempted = 0, failed = 0;
    for (PassResult &p : passes) {
        for (std::size_t i = 0; i < p.runs.size(); ++i) {
            RunRecord &r = p.runs[i];
            if (r.failure.empty() &&
                r.fingerprint != ref.runs[i].fingerprint) {
                r.failure = p.traced
                                ? "traced run's stats differ from the "
                                  "untraced run's"
                                : "stats differ between passes";
            }
            ++attempted;
            if (!r.failure.empty()) {
                ++failed;
                const Cell &c = cells[i / 2];
                std::fprintf(stderr, "FAIL %s %s %s: %s\n",
                             c.kernel->name, c.input.c_str(),
                             i % 2 ? "tmu" : "base", r.failure.c_str());
            }
        }
    }
    const double failFrac = ratio(static_cast<double>(failed),
                                  static_cast<double>(attempted));

    std::vector<double> untracedWall, tracedWall;
    for (const PassResult &p : passes)
        (p.traced ? tracedWall : untracedWall).push_back(p.seconds);
    double cycles = 0.0, ops = 0.0;
    for (const RunRecord &r : ref.runs) {
        cycles += r.cycles;
        ops += stat(r.stats, "cores.retiredOps");
    }
    const double wall = median(untracedWall);
    const double speedup = simSpeedup(cells, ref);

    const Metrics endToEnd = {
        {"setup_s", median(setupReps), "s"},
        {"wall_s", wall, "s"},
        {"sim_cycles_per_s", ratio(cycles, wall), "cycles/s"},
        {"sim_ops_per_s", ratio(ops, wall), "ops/s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
        {"paper_err_pct", paperErrPct(cells, speedup), "%"},
        {"fail_frac", failFrac, "ratio"},
    };

    Metrics perLayer;
    if (tracer.on()) {
        perLayer = countMetrics(cells, ref);
        double events = 0.0;
        for (const Metric &m : perLayer) {
            if (m.name == "sim.sched.events")
                events = m.value;
        }
        const Metrics hostSide = spanMetrics(tracer, events);
        perLayer.insert(perLayer.begin(), hostSide.begin(),
                        hostSide.end());
        perLayer.push_back({"tensor.nnz", probeNnz, "count"});
        perLayer.push_back(
            {"trace.untraced_wall_s", median(untracedWall), "s"});
        perLayer.push_back({"trace.traced_wall_s", median(tracedWall), "s"});
        perLayer.push_back({"trace.overhead_s",
                            median(tracedWall) - median(untracedWall),
                            "s"});
    }

    // Human-readable report.
    std::printf("workload %s: %zu cells x {base, tmu}, %zu passes "
                "(%zu traced), seed %llu\n",
                spec->name, cells.size(), passes.size(), tracedWall.size(),
                static_cast<unsigned long long>(o.seed));
    for (const Cell &c : cells) {
        const auto i = static_cast<std::size_t>(c.id) * 2;
        std::printf("  %-10s %-3s base %10.0f tmu %10.0f cycles  "
                    "speedup %5.2f (paper %4.2f)  host %6.3f + %6.3f s%s\n",
                    c.kernel->name, c.input.c_str(), ref.runs[i].cycles,
                    ref.runs[i + 1].cycles,
                    ratio(ref.runs[i].cycles, ref.runs[i + 1].cycles),
                    c.kernel->paperSpeedup, ref.runs[i].hostSeconds,
                    ref.runs[i + 1].hostSeconds,
                    ref.runs[i].failure.empty() &&
                            ref.runs[i + 1].failure.empty()
                        ? ""
                        : "  FAILED");
    }
    std::printf("simulated speedup geomean %.4f\n", speedup);
    printTable("end-to-end (tracing off):", endToEnd);
    if (tracer.on())
        printTable("per-layer (traced run):", perLayer);

    // Full results file: provenance, cells, metrics and spans.
    if (!o.out.empty()) {
        stats::JsonWriter jw;
        jw.beginObject();
        jw.key("provenance").beginObject();
        for (const auto &[k, v] : o.meta)
            jw.key(k).value(v);
        jw.key("build_type").value(TMU_BENCH_BUILD_TYPE);
        jw.key("compiler").value(TMU_BENCH_COMPILER);
        jw.key("hardware_concurrency")
            .value(static_cast<int>(std::thread::hardware_concurrency()));
        jw.key("nproc").value(affinityCpus());
        jw.key("scale_mat").value(static_cast<std::int64_t>(o.scaleMat));
        jw.key("scale_ten").value(static_cast<std::int64_t>(o.scaleTen));
        std::uint64_t fp = kFnvBasis;
        for (const Index div : {o.scaleMat, o.scaleTen}) {
            fp = fnv1a(benchConfig(div).system.describe(), fp);
            fp = fnv1a(std::to_string(div), fp);
        }
        for (const Cell &c : cells)
            fp = fnv1a(std::string(c.kernel->name) + "/" + c.input, fp);
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(fp));
        jw.key("config_fingerprint").value(hex);
        jw.key("cores").value(kCores);
        jw.key("partition").value("rows");
        jw.key("scheduler").value("event");
        jw.key("caches").value("cold at the start of every run");
        jw.endObject();
        jw.key("workload").value(spec->name);
        jw.key("seed").value(o.seed);
        jw.key("seconds").value(o.seconds);
        jw.key("trace").value(o.trace);
        jw.key("pass_seconds").beginArray();
        for (const PassResult &p : passes)
            jw.value(p.seconds);
        jw.endArray();
        jw.key("cells").beginArray();
        for (const Cell &c : cells) {
            const auto i = static_cast<std::size_t>(c.id) * 2;
            jw.beginObject();
            jw.key("id").value(c.id);
            jw.key("kernel").value(c.kernel->name);
            jw.key("input").value(c.input);
            for (int m = 0; m < 2; ++m) {
                const RunRecord &r = ref.runs[i + static_cast<std::size_t>(m)];
                jw.key(m ? "tmu" : "base").beginObject();
                jw.key("cycles").value(r.cycles);
                jw.key("verified").value(r.verified);
                jw.key("host_s").value(r.hostSeconds);
                jw.key("failure").value(r.failure);
                jw.endObject();
            }
            jw.endObject();
        }
        jw.endArray();
        jw.key("end_to_end");
        writeMetrics(jw, endToEnd);
        if (tracer.on()) {
            jw.key("per_layer");
            writeMetrics(jw, perLayer);
            jw.key("spans").beginArray();
            for (const Span &s : tracer.spans()) {
                jw.beginObject();
                jw.key("name").value(s.name);
                jw.key("layer").value(s.layer);
                jw.key("start_ns").value(static_cast<std::int64_t>(s.begNs));
                jw.key("end_ns").value(static_cast<std::int64_t>(s.endNs));
                jw.key("parent").value(s.parent);
                jw.key("cell").value(s.cell);
                jw.endObject();
            }
            jw.endArray();
        }
        jw.endObject();
        if (!stats::saveTextFile(o.out, jw.str() + "\n"))
            std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
    }

    // Contract line: end-to-end metrics untraced, per-layer traced.
    std::string line = "{\"correct\": ";
    line += failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    bool firstMetric = true;
    for (const Metric &m : tracer.on() ? perLayer : endToEnd) {
        if (m.name == "fail_frac")
            continue; // carried by "failed"/"attempted"
        line += firstMetric ? "" : ", ";
        firstMetric = false;
        line += "\"" + m.name + "\": {\"value\": " + num(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return failed == 0 ? 0 : 1;
}
