/**
 * @file
 * Tests for the cycle-level TMU engine: record-for-record equivalence
 * with the functional interpreter, end-to-end SpMV through a simulated
 * core consuming the outQ, backpressure/double-buffering behaviour,
 * arbiter limits, and context save/restore.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "kernels/spmv.hpp"
#include "plan/frontend/frontend.hpp"
#include "plan/lower.hpp"
#include "tensor/convert.hpp"
#include "tensor/generate.hpp"
#include "tmu/engine.hpp"
#include "tmu/functional.hpp"
#include "tmu/outq.hpp"
#include "workloads/registry.hpp"

namespace tmu::engine {
namespace {

using sim::MicroOp;
using sim::SystemConfig;
using tensor::CooTensor;
using tensor::CsrMatrix;
using tensor::DenseVector;

enum Cb : int { kRi = 1, kRe = 2 };

CsrMatrix
randomMatrix(Index rows, Index cols, double nnzPerRow,
             std::uint64_t seed)
{
    tensor::CsrGenConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    cfg.nnzPerRow = nnzPerRow;
    cfg.seed = seed;
    return tensor::randomCsr(cfg);
}

/** Fig. 8 SpMV P1 program (same builder as the functional test). */
TmuProgram
spmvP1Program(const CsrMatrix &a, const DenseVector &b, int lanes)
{
    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::BCast);
    const int l1 = p.addLayer(GroupMode::LockStep);
    const TuRef rowFbrt = p.dnsFbrT(l0, 0, 0, a.rows());
    const StreamRef rowPtbs =
        p.addMemStream(rowFbrt, a.ptrs().data(), ElemType::I64);
    const StreamRef rowPtes =
        p.addMemStream(rowFbrt, a.ptrs().data() + 1, ElemType::I64);
    p.setExpectedFiberLen(rowFbrt, a.rows());

    std::vector<StreamRef> nnzVals, vecVals;
    for (int r = 0; r < lanes; ++r) {
        const TuRef colFbrt =
            p.rngFbrT(l1, r, rowPtbs, rowPtes, r, lanes);
        const StreamRef colIdxs =
            p.addMemStream(colFbrt, a.idxs().data(), ElemType::I64);
        nnzVals.push_back(
            p.addMemStream(colFbrt, a.vals().data(), ElemType::F64));
        vecVals.push_back(p.addMemStream(colFbrt, b.data(),
                                         ElemType::F64, colIdxs));
        p.setExpectedFiberLen(colFbrt,
                              std::max<Index>(2, a.nnz() / a.rows()));
    }
    const int nnzOp = p.addVecStream(l1, nnzVals, ElemType::F64);
    const int vecOp = p.addVecStream(l1, vecVals, ElemType::F64);
    p.addCallback(l1, CallbackEvent::GroupIte, kRi, {nnzOp, vecOp});
    p.addCallback(l1, CallbackEvent::GroupEnd, kRe, {});
    return p;
}

/** Run the engine standalone, draining records as soon as sealed. */
std::vector<OutqRecord>
drainEngine(TmuEngine &engine, Cycle maxCycles = 5'000'000)
{
    std::vector<OutqRecord> records;
    Cycle now = 0;
    while (now < maxCycles) {
        ++now;
        const bool active = engine.tick(now);
        OutqRecord rec;
        Addr addr;
        while (engine.popRecord(now, rec, addr))
            records.push_back(rec);
        if (!active && engine.allConsumed())
            break;
    }
    EXPECT_LT(now, maxCycles) << "engine did not drain";
    return records;
}

void
expectSameRecords(const std::vector<OutqRecord> &got,
                  const std::vector<OutqRecord> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].callbackId, want[i].callbackId) << "rec " << i;
        EXPECT_EQ(got[i].mask.bits(), want[i].mask.bits()) << "rec " << i;
        ASSERT_EQ(got[i].operands.size(), want[i].operands.size());
        for (size_t o = 0; o < want[i].operands.size(); ++o)
            EXPECT_EQ(got[i].operands[o], want[i].operands[o])
                << "rec " << i << " operand " << o;
    }
}

class EngineEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(EngineEquivalence, MatchesFunctionalInterpreterOnSpmv)
{
    const int lanes = std::get<0>(GetParam());
    const int seed = std::get<1>(GetParam());
    const CsrMatrix a =
        randomMatrix(40, 40, 4, static_cast<std::uint64_t>(seed));
    DenseVector b(a.cols());
    Rng rng(static_cast<std::uint64_t>(seed) + 99);
    for (Index i = 0; i < b.size(); ++i)
        b[i] = rng.nextValue(-1.0, 1.0);

    const TmuProgram p = spmvP1Program(a, b, lanes);
    const auto want = interpretToVector(p);

    SystemConfig sys = SystemConfig::neoverseN1();
    sys.cores = 1;
    sim::MemorySystem mem(sys);
    EngineConfig ecfg;
    ecfg.lanes = 8;
    TmuEngine engine(0, ecfg, mem, p);
    const auto got = drainEngine(engine);
    expectSameRecords(got, want);
    EXPECT_GT(engine.stats().requestsIssued, 0u);
    EXPECT_GT(engine.stats().chunksSealed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LanesSeeds, EngineEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(11, 12)));

TEST(Engine, DisjunctiveMergeMatchesFunctional)
{
    // Two-lane DCSR-style column merge, as in SpKAdd's inner layer.
    const std::vector<Index> ia = {0, 2, 3, 7, 9};
    const std::vector<Value> va = {1, 2, 3, 4, 5};
    const std::vector<Index> ib = {0, 1, 3, 9};
    const std::vector<Value> vb = {10, 20, 30, 40};

    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::DisjMrg);
    const TuRef ta = p.dnsFbrT(l0, 0, 0, static_cast<Index>(ia.size()));
    const StreamRef ka = p.addMemStream(ta, ia.data(), ElemType::I64);
    const StreamRef wa = p.addMemStream(ta, va.data(), ElemType::F64);
    p.setMergeKey(ta, ka);
    const TuRef tb = p.dnsFbrT(l0, 1, 0, static_cast<Index>(ib.size()));
    const StreamRef kb = p.addMemStream(tb, ib.data(), ElemType::I64);
    const StreamRef wb = p.addMemStream(tb, vb.data(), ElemType::F64);
    p.setMergeKey(tb, kb);
    const int keyOp = p.addVecStream(l0, {ka, kb}, ElemType::I64);
    const int valOp = p.addVecStream(l0, {wa, wb}, ElemType::F64);
    p.addCallback(l0, CallbackEvent::GroupIte, kRi,
                  {keyOp, valOp, kMskOperand});

    const auto want = interpretToVector(p);
    SystemConfig sys = SystemConfig::neoverseN1();
    sys.cores = 1;
    sim::MemorySystem mem(sys);
    TmuEngine engine(0, EngineConfig{}, mem, p);
    expectSameRecords(drainEngine(engine), want);
}

TEST(Engine, ConjunctiveMergeMatchesFunctional)
{
    Rng rng(77);
    std::vector<Index> ia, ib;
    std::vector<Value> va, vb;
    for (Index c = 0; c < 200; ++c) {
        if (rng.nextBool(0.4)) {
            ia.push_back(c);
            va.push_back(rng.nextValue(0.1, 1.0));
        }
        if (rng.nextBool(0.4)) {
            ib.push_back(c);
            vb.push_back(rng.nextValue(0.1, 1.0));
        }
    }

    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::ConjMrg);
    const TuRef ta = p.dnsFbrT(l0, 0, 0, static_cast<Index>(ia.size()));
    const StreamRef ka = p.addMemStream(ta, ia.data(), ElemType::I64);
    const StreamRef wa = p.addMemStream(ta, va.data(), ElemType::F64);
    p.setMergeKey(ta, ka);
    const TuRef tb = p.dnsFbrT(l0, 1, 0, static_cast<Index>(ib.size()));
    const StreamRef kb = p.addMemStream(tb, ib.data(), ElemType::I64);
    const StreamRef wb = p.addMemStream(tb, vb.data(), ElemType::F64);
    p.setMergeKey(tb, kb);
    const int keyOp = p.addVecStream(l0, {ka, kb}, ElemType::I64);
    const int valOp = p.addVecStream(l0, {wa, wb}, ElemType::F64);
    p.addCallback(l0, CallbackEvent::GroupIte, kRi, {keyOp, valOp});

    const auto want = interpretToVector(p);
    EXPECT_FALSE(want.empty());
    SystemConfig sys = SystemConfig::neoverseN1();
    sys.cores = 1;
    sim::MemorySystem mem(sys);
    TmuEngine engine(0, EngineConfig{}, mem, p);
    expectSameRecords(drainEngine(engine), want);
}

TEST(Engine, NestedConjunctiveMergeMatchesFunctional)
{
    // Regression: a 3-layer program whose inner ConjMrg flushes across
    // multiple cycles used to drain the *next* instance's elements
    // (TriangleCount deadlock). Covers per-instance flush bookkeeping.
    const CsrMatrix g = tensor::rmatGraph(6, 4, 9);
    const CsrMatrix l = tensor::lowerTriangle(g);

    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::Single);
    const int l1 = p.addLayer(GroupMode::BCast);
    const int l2 = p.addLayer(GroupMode::ConjMrg);

    const TuRef rows = p.dnsFbrT(l0, 0, 0, l.rows());
    const StreamRef iPtrB =
        p.addMemStream(rows, l.ptrs().data(), ElemType::I64);
    const StreamRef iPtrE =
        p.addMemStream(rows, l.ptrs().data() + 1, ElemType::I64);

    const TuRef ks = p.rngFbrT(l1, 0, iPtrB, iPtrE);
    const StreamRef kIdxs =
        p.addMemStream(ks, l.idxs().data(), ElemType::I64);
    const StreamRef kPtrB =
        p.addMemStream(ks, l.ptrs().data(), ElemType::I64, kIdxs);
    const StreamRef kPtrE =
        p.addMemStream(ks, l.ptrs().data() + 1, ElemType::I64, kIdxs);
    const StreamRef fwdB = p.addFwdStream(ks, iPtrB);
    const StreamRef fwdE = p.addFwdStream(ks, iPtrE);

    const TuRef rowI = p.rngFbrT(l2, 0, fwdB, fwdE);
    const StreamRef keyI =
        p.addMemStream(rowI, l.idxs().data(), ElemType::I64);
    p.setMergeKey(rowI, keyI);
    const TuRef rowK = p.rngFbrT(l2, 1, kPtrB, kPtrE);
    const StreamRef keyK =
        p.addMemStream(rowK, l.idxs().data(), ElemType::I64);
    p.setMergeKey(rowK, keyK);
    p.addCallback(l2, CallbackEvent::GroupIte, kRi, {});

    const auto want = interpretToVector(p);
    SystemConfig sysCfg = SystemConfig::neoverseN1();
    sysCfg.cores = 1;
    sim::MemorySystem mem(sysCfg);
    TmuEngine engine(0, EngineConfig{}, mem, p);
    const auto got = drainEngine(engine);
    expectSameRecords(got, want);
}

TEST(Engine, EndToEndSpmvThroughCore)
{
    const CsrMatrix a = randomMatrix(200, 200, 6, 31);
    DenseVector b(a.cols());
    Rng rng(32);
    for (Index i = 0; i < b.size(); ++i)
        b[i] = rng.nextValue(-1.0, 1.0);
    const DenseVector want = kernels::spmvRef(a, b);

    SystemConfig sysCfg = SystemConfig::neoverseN1();
    sysCfg.cores = 1;
    sim::System sys(sysCfg);
    const TmuProgram p = spmvP1Program(a, b, 8);
    TmuEngine engine(0, EngineConfig{}, sys.mem(), p);
    OutqSource src(engine);

    DenseVector x(a.rows());
    Index row = 0;
    Value sum = 0.0;
    src.setHandler(kRi, [&](const OutqRecord &rec,
                            std::vector<MicroOp> &ops) {
        for (size_t i = 0; i < rec.operands[0].size(); ++i)
            sum += rec.f64(0, static_cast<int>(i)) *
                   rec.f64(1, static_cast<int>(i));
        // Vector multiply + lane reduce (Fig. 6 ri callback).
        ops.push_back(MicroOp::flop(static_cast<std::uint16_t>(
            2 * rec.operands[0].size())));
    });
    src.setHandler(kRe, [&](const OutqRecord &,
                            std::vector<MicroOp> &ops) {
        x[row] = sum;
        sum = 0.0;
        ops.push_back(
            MicroOp::store(sim::addrOf(x.data(), row), 8));
        ++row;
    });

    sys.addDevice(&engine);
    sys.attachSource(0, &src);
    const sim::SimResult res = sys.run();

    EXPECT_EQ(row, a.rows());
    for (Index i = 0; i < a.rows(); ++i)
        EXPECT_NEAR(x[i], want[i], 1e-12);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(engine.stats().readToWriteRatio(), 0.0);
    // The core's loads are just outQ reads: cheap, L2-resident.
    EXPECT_LT(res.total.avgLoadToUse(), 20.0);
}

TEST(Engine, BackpressureBoundsQueues)
{
    // A tiny outQ chunk + a slow consumer: the engine must survive on
    // bounded storage (no overflow panics) and still deliver the full
    // record stream.
    const CsrMatrix a = randomMatrix(60, 60, 5, 41);
    DenseVector b(a.cols(), 1.0);
    const TmuProgram p = spmvP1Program(a, b, 4);
    const auto want = interpretToVector(p);

    SystemConfig sysCfg = SystemConfig::neoverseN1();
    sysCfg.cores = 1;
    sim::MemorySystem mem(sysCfg);
    EngineConfig ecfg;
    ecfg.chunkBytes = 128;
    ecfg.perLaneBytes = 256; // shallow queues
    ecfg.stepQueueDepth = 2;
    ecfg.eventQueueDepth = 2;
    TmuEngine engine(0, ecfg, mem, p);

    // Consume each record 50 cycles after it becomes available.
    std::vector<OutqRecord> got;
    Cycle now = 0;
    Cycle nextPop = 0;
    while (now < 3'000'000) {
        ++now;
        const bool active = engine.tick(now);
        if (now >= nextPop) {
            OutqRecord rec;
            Addr addr;
            if (engine.popRecord(now, rec, addr)) {
                got.push_back(rec);
                nextPop = now + 50;
            }
        }
        if (!active && engine.allConsumed())
            break;
    }
    expectSameRecords(got, want);
    EXPECT_GT(engine.stats().chunksSealed, 2u);
}

TEST(Engine, OutstandingRequestsRespectCap)
{
    const CsrMatrix a = randomMatrix(400, 4000, 16, 43);
    DenseVector b(a.cols(), 1.0);
    const TmuProgram p = spmvP1Program(a, b, 8);

    SystemConfig sysCfg = SystemConfig::neoverseN1();
    sysCfg.cores = 1;
    sim::MemorySystem mem(sysCfg);
    EngineConfig ecfg;
    ecfg.maxOutstanding = 4;
    TmuEngine engine(0, ecfg, mem, p);
    drainEngine(engine);

    // With the cap at 4 the engine still finishes but issues in
    // dribbles; compare against an uncapped engine's issue count.
    sim::MemorySystem mem2(sysCfg);
    TmuEngine engine2(0, EngineConfig{}, mem2, p);
    drainEngine(engine2);
    EXPECT_EQ(engine.stats().requestsIssued +
                  engine.stats().coalescedLoads,
              engine2.stats().requestsIssued +
                  engine2.stats().coalescedLoads);
}

TEST(Engine, MoreLanesLoadFasterOnWideRows)
{
    // Wide rows: 8 lanes should finish traversal in fewer cycles than
    // a single lane with the same storage (Fig. 15 Single-Lane).
    const CsrMatrix a = tensor::fixedNnzCsr(64, 512);
    DenseVector b(a.cols(), 1.0);

    SystemConfig sysCfg = SystemConfig::neoverseN1();
    sysCfg.cores = 1;

    auto runWith = [&](int lanes, std::size_t perLane) {
        sim::MemorySystem mem(sysCfg);
        EngineConfig ecfg;
        ecfg.lanes = 8;
        ecfg.perLaneBytes = perLane;
        const TmuProgram p = spmvP1Program(a, b, lanes);
        TmuEngine engine(0, ecfg, mem, p);
        Cycle now = 0;
        while (now < 10'000'000) {
            ++now;
            const bool active = engine.tick(now);
            OutqRecord rec;
            Addr addr;
            while (engine.popRecord(now, rec, addr)) {
            }
            if (!active && engine.allConsumed())
                break;
        }
        return now;
    };

    const Cycle eightLane = runWith(8, 2048);
    const Cycle singleLane = runWith(1, 16 * 1024);
    EXPECT_GT(static_cast<double>(singleLane),
              1.5 * static_cast<double>(eightLane));
}

TEST(Engine, QuiesceAndResumeProducesSameStream)
{
    const CsrMatrix a = randomMatrix(80, 80, 5, 51);
    DenseVector b(a.cols(), 1.0);
    const TmuProgram p = spmvP1Program(a, b, 4);
    const auto want = interpretToVector(p);

    SystemConfig sysCfg = SystemConfig::neoverseN1();
    sysCfg.cores = 1;

    // Run the first engine, quiesce it partway through.
    sim::MemorySystem mem(sysCfg);
    TmuEngine first(0, EngineConfig{}, mem, p);
    std::vector<OutqRecord> got;
    Cycle now = 0;
    bool requested = false;
    while (now < 3'000'000) {
        ++now;
        const bool active = first.tick(now);
        OutqRecord rec;
        Addr addr;
        while (first.popRecord(now, rec, addr))
            got.push_back(rec);
        if (!requested && got.size() > want.size() / 3) {
            first.requestQuiesce();
            requested = true;
        }
        if (!active && first.allConsumed())
            break;
    }
    ASSERT_TRUE(first.quiesced());
    ASSERT_LT(got.size(), want.size()); // stopped early

    // Restore on a "rescheduled" engine and finish.
    const TmuContext ctx = first.saveContext();
    const TmuProgram resumed = TmuEngine::rebaseProgram(p, ctx);
    sim::MemorySystem mem2(sysCfg);
    TmuEngine second(0, EngineConfig{}, mem2, resumed);
    for (const OutqRecord &rec : drainEngine(second))
        got.push_back(rec);

    expectSameRecords(got, want);
}

TEST(Engine, ConjSkipRateIsTimingOnly)
{
    // Different skip-ahead rates must produce identical record
    // streams; higher rates may only change cycle counts.
    Rng rng(91);
    std::vector<Index> ia, ib;
    std::vector<Value> va, vb;
    for (Index c = 0; c < 400; ++c) {
        if (rng.nextBool(0.15)) {
            ia.push_back(c);
            va.push_back(1.0);
        }
        if (rng.nextBool(0.6)) {
            ib.push_back(c);
            vb.push_back(2.0);
        }
    }
    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::ConjMrg);
    const TuRef ta = p.dnsFbrT(l0, 0, 0, static_cast<Index>(ia.size()));
    const StreamRef ka = p.addMemStream(ta, ia.data(), ElemType::I64);
    p.setMergeKey(ta, ka);
    const TuRef tb = p.dnsFbrT(l0, 1, 0, static_cast<Index>(ib.size()));
    const StreamRef kb = p.addMemStream(tb, ib.data(), ElemType::I64);
    p.setMergeKey(tb, kb);
    const int keyOp = p.addVecStream(l0, {ka, kb}, ElemType::I64);
    p.addCallback(l0, CallbackEvent::GroupIte, kRi, {keyOp});

    SystemConfig sysCfg = SystemConfig::neoverseN1();
    sysCfg.cores = 1;

    std::vector<std::vector<OutqRecord>> streams;
    std::vector<Cycle> cycles;
    for (const int skip : {1, 8}) {
        sim::MemorySystem mem(sysCfg);
        EngineConfig ecfg;
        ecfg.conjSkipPerCycle = skip;
        TmuEngine engine(0, ecfg, mem, p);
        Cycle now = 0;
        std::vector<OutqRecord> got;
        while (now < 3'000'000) {
            ++now;
            const bool active = engine.tick(now);
            OutqRecord rec;
            Addr addr;
            while (engine.popRecord(now, rec, addr))
                got.push_back(rec);
            if (!active && engine.allConsumed())
                break;
        }
        streams.push_back(std::move(got));
        cycles.push_back(now);
    }
    expectSameRecords(streams[1], streams[0]);
    // The asymmetric fibers have many mismatching steps to skip.
    EXPECT_LT(cycles[1], cycles[0]);
}

TEST(Engine, QuiesceBeforeStartResumesFromBeginning)
{
    const CsrMatrix a = randomMatrix(20, 20, 3, 61);
    DenseVector b(a.cols(), 1.0);
    const TmuProgram p = spmvP1Program(a, b, 2);
    const auto want = interpretToVector(p);

    SystemConfig sysCfg = SystemConfig::neoverseN1();
    sysCfg.cores = 1;
    sim::MemorySystem mem(sysCfg);
    TmuEngine engine(0, EngineConfig{}, mem, p);
    engine.requestQuiesce(); // before the first tick
    const auto got = drainEngine(engine);
    EXPECT_TRUE(engine.quiesced());

    // Nothing (or only a prefix) ran; the resumed engine finishes.
    const TmuProgram resumed =
        TmuEngine::rebaseProgram(p, engine.saveContext());
    sim::MemorySystem mem2(sysCfg);
    TmuEngine second(0, EngineConfig{}, mem2, resumed);
    auto rest = drainEngine(second);
    std::vector<OutqRecord> all = got;
    all.insert(all.end(), rest.begin(), rest.end());
    expectSameRecords(all, want);
}

TEST(Engine, DebugStateDescribesUnits)
{
    const CsrMatrix a = randomMatrix(10, 10, 2, 63);
    DenseVector b(a.cols(), 1.0);
    const TmuProgram p = spmvP1Program(a, b, 2);
    SystemConfig sysCfg = SystemConfig::neoverseN1();
    sysCfg.cores = 1;
    sim::MemorySystem mem(sysCfg);
    TmuEngine engine(0, EngineConfig{}, mem, p);
    engine.tick(1);
    const std::string s = engine.debugState();
    EXPECT_NE(s.find("TG0"), std::string::npos);
    EXPECT_NE(s.find("TU(1,1)"), std::string::npos);
    EXPECT_NE(s.find("stack=["), std::string::npos);
}

/** Largest record @p p can emit: every lane active in every operand. */
std::size_t
maxRecordBytes(const TmuProgram &p)
{
    std::size_t most = 0;
    for (int l = 0; l < p.numLayers(); ++l) {
        const LayerDesc &layer = p.layer(l);
        for (const CallbackDesc &cb : layer.callbacks) {
            std::size_t n = 8;
            for (const int o : cb.operands) {
                n += o == kMskOperand
                         ? 8
                         : 8 * layer.groupStreams[static_cast<size_t>(o)]
                                   .perLane.size();
            }
            most = std::max(most, n);
        }
    }
    return most;
}

/**
 * One-slot event and step queues and one-record outQ chunks: the TGs
 * find their queues full on nearly every cycle, so the blocked path
 * of a co-iteration step runs far more often than the emitting one.
 */
EngineConfig
starvedConfig(const TmuProgram &p)
{
    EngineConfig cfg;
    cfg.eventQueueDepth = 1;
    cfg.stepQueueDepth = 1;
    cfg.chunkBytes = maxRecordBytes(p);
    return cfg;
}

/** SpMSpM (Gustavson, 8 j-lanes) and TC as production lowers them. */
std::vector<std::pair<std::string, TmuProgram>>
productionPrograms(const CsrMatrix &a, const CsrMatrix &at,
                   const CsrMatrix &lower)
{
    plan::frontend::EinsumBindings mm;
    mm.csr["A"] = &a;
    mm.csr["B"] = &at;
    plan::frontend::CompileOptions mmo;
    mmo.lanes = 8;
    mmo.end = a.rows();
    plan::frontend::EinsumBindings tc;
    tc.csr["L"] = &lower;
    plan::frontend::CompileOptions tco;
    tco.end = lower.rows();
    return {
        {"SpMSpM",
         plan::lowerProgram(
             plan::frontend::compileEinsum(
                 "Z(i,j; csr) = A(i,k; csr) * B(k,j; csr)", mm, mmo)
                 .valueOrFatal())},
        {"TC", plan::lowerProgram(
                   plan::frontend::compileEinsum(
                       "c = L(i,k; csr) * L(k,j; csr) * L(i,j; csr)", tc,
                       tco)
                       .valueOrFatal())}};
}

TEST(EngineBackpressure, StarvedQueuesKeepTheRecordStream)
{
    const CsrMatrix a = randomMatrix(24, 24, 4, 3);
    const CsrMatrix at = tensor::transposeCsr(a);
    const CsrMatrix lower =
        tensor::lowerTriangle(tensor::rmatGraph(5, 4, 7));
    for (const auto &[name, p] : productionPrograms(a, at, lower)) {
        SCOPED_TRACE(name);
        const auto want = interpretToVector(p);
        ASSERT_FALSE(want.empty());
        SystemConfig sys = SystemConfig::neoverseN1();
        sys.cores = 1;
        sim::MemorySystem mem(sys);
        TmuEngine engine(0, starvedConfig(p), mem, p);
        expectSameRecords(drainEngine(engine), want);
        EXPECT_EQ(engine.stats().recordsEmitted, want.size());
    }
}

TEST(EngineBackpressure, StarvedQueuesEventMatchesDense)
{
    // The record chunk size depends only on the program's shape (lanes,
    // operands), which the workloads share with these programs.
    const CsrMatrix a = randomMatrix(24, 24, 4, 3);
    const CsrMatrix at = tensor::transposeCsr(a);
    const CsrMatrix lower =
        tensor::lowerTriangle(tensor::rmatGraph(5, 4, 7));
    for (const auto &[name, p] : productionPrograms(a, at, lower)) {
        SCOPED_TRACE(name);
        auto wl = workloads::makeWorkload(name);
        wl->prepare(wl->inputs().front(), /*scale=*/1024);
        workloads::RunConfig cfg;
        cfg.system.cores = 2;
        cfg.mode = workloads::Mode::Tmu;
        cfg.tmu = starvedConfig(p);
        cfg.system.schedDense = false;
        const auto event = wl->run(cfg);
        cfg.system.schedDense = true;
        const auto dense = wl->run(cfg);
        EXPECT_TRUE(event.verified);
        EXPECT_TRUE(dense.verified);
        EXPECT_EQ(event.sim.cycles, dense.sim.cycles);

        // The starved queues must actually bind: the default config
        // finishes sooner.
        cfg.tmu = EngineConfig{};
        EXPECT_LT(wl->run(cfg).sim.cycles, event.sim.cycles);
    }
}

TEST(Engine, RejectsNonDenseOuterLayer)
{
    TmuProgram p;
    const int l0 = p.addLayer(GroupMode::BCast);
    const TuRef t0 = p.dnsFbrT(l0, 0, 0, 4);
    const StreamRef s0 = p.iteStream(t0);
    const int l1 = p.addLayer(GroupMode::Single);
    p.idxFbrT(l1, 0, s0, 2);

    // A program whose layer 0 is not dense cannot be instantiated.
    TmuProgram bad;
    const int b0 = bad.addLayer(GroupMode::Single);
    (void)b0;
    SystemConfig sysCfg = SystemConfig::neoverseN1();
    sysCfg.cores = 1;
    sim::MemorySystem mem(sysCfg);
    EXPECT_DEATH(
        { TmuEngine engine(0, EngineConfig{}, mem, bad); }, "");
}

} // namespace
} // namespace tmu::engine
