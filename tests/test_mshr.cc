/**
 * @file
 * Tests of the non-blocking memory hierarchy: the MSHR file itself
 * (coalescing, wakeup order, backpressure, squash orphaning), the
 * hierarchy-level request path, and the end-to-end timing properties
 * the model exists for — memory-level parallelism strictly improves
 * CPI on independent-miss kernels, changes nothing on compute-bound
 * ones, and mshrEntries = 1 reproduces the legacy blocking numbers on
 * the in-order core.
 */

#include <gtest/gtest.h>

#include <array>
#include <random>

#include "core/inorder_core.hh"
#include "core/ooo_core.hh"
#include "isa/interpreter.hh"
#include "isa/program.hh"
#include "mem/hierarchy.hh"
#include "mem/mshr.hh"

namespace nda {
namespace {

constexpr unsigned kL1Lat = 4;
constexpr unsigned kL2Lat = 40;
constexpr unsigned kDramLat = 100;
constexpr unsigned kMissLat = kL2Lat + kDramLat;

HierarchyParams
mshrParams(unsigned entries)
{
    HierarchyParams p;
    p.mshrEntries = entries;
    return p;
}

// --- Mshr file unit tests ----------------------------------------------

TEST(Mshr, TakeReadyDrainsInFillThenAllocOrder)
{
    Mshr file("t", 4, 8);
    file.allocate(3, 50, {1, MshrTargetKind::kLoad});
    file.allocate(1, 20, {2, MshrTargetKind::kLoad});
    file.allocate(2, 20, {3, MshrTargetKind::kLoad});

    // Nothing due yet.
    EXPECT_TRUE(file.takeReady(19).empty());
    EXPECT_EQ(file.occupancy(), 3u);

    // Both fillAt=20 entries drain, in allocation order.
    const auto ready = file.takeReady(20);
    ASSERT_EQ(ready.size(), 2u);
    EXPECT_EQ(ready[0].lineAddr, 1u);
    EXPECT_EQ(ready[1].lineAddr, 2u);
    EXPECT_EQ(file.occupancy(), 1u);

    const auto rest = file.takeReady(100);
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].lineAddr, 3u);
    EXPECT_TRUE(file.empty());
}

TEST(Mshr, TargetListBackpressure)
{
    Mshr file("t", 2, 2);
    MshrEntry &e = file.allocate(7, 30, {1, MshrTargetKind::kLoad});
    EXPECT_TRUE(file.addTarget(e, {2, MshrTargetKind::kLoad}));
    EXPECT_FALSE(file.addTarget(e, {3, MshrTargetKind::kLoad}))
        << "target list capacity is 2";
    EXPECT_EQ(file.secondaryMerges(), 1u);
    EXPECT_EQ(file.fullStalls(), 1u);
    EXPECT_EQ(e.targets.size(), 2u);
}

TEST(Mshr, SquashDropsOnlyYoungLoadTargets)
{
    Mshr file("t", 4, 8);
    MshrEntry &e = file.allocate(7, 30, {10, MshrTargetKind::kLoad});
    file.addTarget(e, {20, MshrTargetKind::kLoad});
    file.addTarget(e, {25, MshrTargetKind::kStore});
    file.addTarget(e, {kInvalidSeqNum, MshrTargetKind::kFetch});

    file.squashLoadTargets(15);

    // The young load is gone; the old load, the store (already
    // committed), and the fetch target survive — as does the entry.
    ASSERT_EQ(file.occupancy(), 1u);
    const auto &targets = file.entries().front().targets;
    ASSERT_EQ(targets.size(), 3u);
    EXPECT_EQ(targets[0].seq, 10u);
    EXPECT_EQ(targets[1].kind, MshrTargetKind::kStore);
    EXPECT_EQ(targets[2].kind, MshrTargetKind::kFetch);
}

// --- hierarchy request path --------------------------------------------

TEST(MshrHierarchy, PrimaryThenCoalesceThenHit)
{
    MemHierarchy hier(mshrParams(4));
    const Addr addr = 0x100000;

    // Cold DRAM miss: full round trip, entry allocated.
    const MemRequestResult miss = hier.dataRequest(
        addr, 10, 1, MshrTargetKind::kLoad);
    EXPECT_EQ(miss.status, MemReqStatus::kMiss);
    EXPECT_EQ(miss.latency, kMissLat);
    EXPECT_TRUE(miss.offChip());

    // Same line 30 cycles later: coalesced, shorter wait, no second
    // entry in either file.
    const MemRequestResult merged = hier.dataRequest(
        addr + 8, 40, 2, MshrTargetKind::kLoad);
    EXPECT_EQ(merged.status, MemReqStatus::kMerged);
    EXPECT_EQ(merged.latency, kMissLat - 30);
    EXPECT_TRUE(merged.offChip());
    EXPECT_EQ(hier.mshrData().occupancy(), 1u);
    EXPECT_EQ(hier.mshrL2().occupancy(), 1u);
    EXPECT_EQ(hier.mshrData().secondaryMerges(), 1u);

    // The tags must not hold the line until the fill is due...
    hier.advance(10 + kMissLat - 1);
    EXPECT_FALSE(hier.l1d().probe(addr));

    // ...and must hold it afterwards: the request path sees a hit.
    hier.advance(10 + kMissLat);
    EXPECT_TRUE(hier.mshrDrained());
    const MemRequestResult hit = hier.dataRequest(
        addr, 10 + kMissLat, 3, MshrTargetKind::kLoad);
    EXPECT_EQ(hit.status, MemReqStatus::kHit);
    EXPECT_EQ(hit.latency, kL1Lat);
}

TEST(MshrHierarchy, FullFileRejectsWithoutMutating)
{
    MemHierarchy hier(mshrParams(2));
    EXPECT_EQ(hier.dataRequest(0x100000, 0, 1, MshrTargetKind::kLoad)
                  .status,
              MemReqStatus::kMiss);
    EXPECT_EQ(hier.dataRequest(0x200000, 0, 2, MshrTargetKind::kLoad)
                  .status,
              MemReqStatus::kMiss);

    const std::uint64_t hits = hier.l1d().hits();
    const std::uint64_t misses = hier.l1d().misses();
    const MemRequestResult rej = hier.dataRequest(
        0x300000, 1, 3, MshrTargetKind::kLoad);
    EXPECT_TRUE(rej.rejected());
    EXPECT_EQ(hier.mshrData().fullStalls(), 1u);
    // A rejected request must leave no trace: the retry recomputes
    // from scratch.
    EXPECT_EQ(hier.l1d().hits(), hits);
    EXPECT_EQ(hier.l1d().misses(), misses);
    EXPECT_EQ(hier.mshrData().occupancy(), 2u);

    // Draining frees the slot and the retry succeeds.
    hier.advance(kMissLat);
    EXPECT_EQ(hier.dataRequest(0x300000, kMissLat, 3,
                               MshrTargetKind::kLoad)
                  .status,
              MemReqStatus::kMiss);
}

TEST(MshrHierarchy, SquashOrphansTheFill)
{
    MemHierarchy hier(mshrParams(4));
    const Addr addr = 0x100000;
    hier.dataRequest(addr, 0, 100, MshrTargetKind::kLoad);

    // Squash everything younger than seq 50: the target vanishes but
    // the entry stays behind as an orphan.
    hier.squashLoadTargets(50);
    ASSERT_EQ(hier.mshrData().occupancy(), 1u);
    EXPECT_TRUE(hier.mshrData().entries().front().targets.empty());

    // The wrong-path fill still lands — the squash-surviving cache
    // channel the NDA policies are measured against.
    hier.advance(kMissLat);
    EXPECT_TRUE(hier.l1d().probe(addr));
    EXPECT_TRUE(hier.l2().probe(addr));
}

TEST(MshrHierarchy, InstAndDataShareOneDramFetch)
{
    MemHierarchy hier(mshrParams(4));
    const Addr addr = 0x100000;
    const MemRequestResult ifetch = hier.instRequest(addr, 0);
    EXPECT_EQ(ifetch.status, MemReqStatus::kMiss);

    // A data request to the same line coalesces onto the in-flight L2
    // fill the instruction side started.
    const MemRequestResult merged = hier.dataRequest(
        addr, 5, 1, MshrTargetKind::kLoad);
    EXPECT_EQ(merged.status, MemReqStatus::kMerged);
    EXPECT_EQ(merged.latency, kMissLat - 5);
    EXPECT_EQ(hier.mshrL2().occupancy(), 1u);

    hier.advance(kMissLat);
    EXPECT_TRUE(hier.l1i().probe(addr));
    EXPECT_TRUE(hier.l1d().probe(addr));
}

TEST(MshrHierarchy, MidMissSaveConvergesAndRoundTrips)
{
    MemHierarchy hier(mshrParams(4));
    hier.dataRequest(0x100000, 0, 1, MshrTargetKind::kLoad);
    hier.dataRequest(0x200000, 3, 2, MshrTargetKind::kLoad);
    ASSERT_FALSE(hier.mshrDrained());

    // save() drains the in-flight fills into the captured image...
    const MemHierarchy::Snapshot snap = hier.save();

    // ...which equals the state the live hierarchy converges to.
    hier.advance(kMissLat + 3);
    ASSERT_TRUE(hier.mshrDrained());
    EXPECT_EQ(hier.save(), snap);

    // And restore -> save round-trips bit-exact.
    MemHierarchy fresh(mshrParams(4));
    fresh.restore(snap);
    EXPECT_EQ(fresh.save(), snap);
}

TEST(MshrHierarchy, EagerPolicyMatchesEagerAccess)
{
    // mshrEntries = 0: the request API must be exactly the eager
    // access it replaced in the cores — same latency and level, same
    // tags, LRU and stats — and must never reject or claim an entry.
    MemHierarchy req(mshrParams(0));
    MemHierarchy ref(mshrParams(0));
    std::mt19937_64 rng(20190622);
    // 2048 lines (128 KiB) thrash the L1s but fit the L2, so repeats
    // hit at every level; a few far lines keep DRAM misses coming.
    const auto pick_addr = [&rng]() -> Addr {
        const Addr line = rng() % 16 == 0 ? 0x100000 + rng() % 65536
                                          : rng() % 2048;
        return line * kLineSize + rng() % kLineSize;
    };
    std::array<unsigned, 3> levels{};
    for (Cycle now = 1; now <= 20000; ++now) {
        req.advance(now);
        const Addr addr = pick_addr();
        const unsigned op = static_cast<unsigned>(rng() % 16);
        if (op == 0) {
            req.flushLine(addr);
            ref.flushLine(addr);
            continue;
        }
        MemRequestResult got;
        AccessResult want;
        if (op < 5) {
            got = req.instRequest(addr, now);
            want = ref.instAccess(addr);
        } else {
            const auto kind = static_cast<MshrTargetKind>(op % 3);
            got = req.dataRequest(addr, now, now, kind, op % 2);
            want = ref.dataAccess(addr);
        }
        ASSERT_EQ(got.latency, want.latency) << "request " << now;
        ASSERT_EQ(got.level, want.level) << "request " << now;
        ASSERT_EQ(got.status, want.level == HitLevel::kL1
                                  ? MemReqStatus::kHit
                                  : MemReqStatus::kFilled)
            << "request " << now;
        ASSERT_FALSE(got.occupiesMshr());
        ++levels[static_cast<unsigned>(got.level)];
    }
    for (unsigned n : levels)
        EXPECT_GT(n, 0u) << "the stream must reach every level";

    EXPECT_EQ(req.save(), ref.save());
    const Cache *pairs[][2] = {{&req.l1i(), &ref.l1i()},
                               {&req.l1d(), &ref.l1d()},
                               {&req.l2(), &ref.l2()}};
    for (const auto &pair : pairs) {
        EXPECT_EQ(pair[0]->hits(), pair[1]->hits())
            << pair[0]->params().name;
        EXPECT_EQ(pair[0]->misses(), pair[1]->misses())
            << pair[0]->params().name;
        EXPECT_EQ(pair[0]->fills(), pair[1]->fills())
            << pair[0]->params().name;
    }
    for (const Mshr *file :
         {&req.mshrInst(), &req.mshrData(), &req.mshrL2()}) {
        EXPECT_TRUE(file->empty()) << file->name();
        EXPECT_EQ(file->fullStalls(), 0u) << file->name();
    }
}

// --- end-to-end timing on the cores ------------------------------------

/** `iters` iterations of four independent cold-miss loads (64 B
 *  stride over an unmapped, never-revisited region: every load is a
 *  DRAM miss and reads 0). The MLP test substrate. */
Program
strideLoads(unsigned iters)
{
    ProgramBuilder b("stride");
    b.movi(1, 0x400000);
    b.movi(2, iters);
    b.movi(3, 0);
    auto loop = b.label();
    b.load(4, 1, 0, 8);
    b.load(5, 1, 64, 8);
    b.load(6, 1, 128, 8);
    b.load(7, 1, 192, 8);
    b.addi(1, 1, 256);
    b.addi(3, 3, 1);
    b.blt(3, 2, loop);
    b.halt();
    return b.build();
}

Program
aluLoop(unsigned iters)
{
    ProgramBuilder b("alu");
    b.movi(1, 0);
    b.movi(2, iters);
    b.movi(3, 0);
    auto loop = b.label();
    b.add(3, 3, 1);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    return b.build();
}

Cycle
runOooCycles(const Program &p, unsigned mshr_entries,
             std::uint64_t *committed = nullptr)
{
    SimConfig cfg;
    cfg.memory.mshrEntries = mshr_entries;
    OooCore core(p, cfg);
    core.run(~std::uint64_t{0}, 10'000'000);
    EXPECT_TRUE(core.halted());
    if (committed)
        *committed = core.committedInsts();
    return core.cycle();
}

TEST(MshrTiming, OooMlpStrictlyImprovesMemoryBoundCpi)
{
    const Program p = strideLoads(64);
    std::uint64_t committed1 = 0, committed8 = 0;
    const Cycle blocking = runOooCycles(p, 1, &committed1);
    const Cycle mlp = runOooCycles(p, 8, &committed8);
    EXPECT_EQ(committed1, committed8);
    EXPECT_LT(mlp, blocking)
        << "independent misses must overlap with 8 MSHRs";
    // Four independent DRAM misses per iteration should overlap
    // almost fully: demand well over 2x, not a rounding artifact.
    EXPECT_LT(2 * mlp, blocking);
}

TEST(MshrTiming, OooComputeBoundUnchanged)
{
    const Program p = aluLoop(2000);
    const Cycle legacy = runOooCycles(p, 0);
    const Cycle mlp = runOooCycles(p, 8);
    EXPECT_EQ(legacy, mlp)
        << "MSHRs are a memory-timing knob; ALU-bound code must not "
           "move";
}

TEST(MshrTiming, OooArchStateMatchesInterpreter)
{
    const Program p = strideLoads(16);
    Interpreter ref(p);
    ref.run(1'000'000);
    SimConfig cfg;
    cfg.memory.mshrEntries = 8;
    OooCore core(p, cfg);
    core.run(~std::uint64_t{0}, 10'000'000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.committedInsts(), ref.instCount());
    for (int r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(core.archReg(r), ref.reg(r)) << "r" << r;
}

/** Mixed load/store/ALU kernel for the in-order equivalence check. */
Program
mixedKernel(unsigned iters)
{
    ProgramBuilder b("mixed");
    b.zeroSegment(0x10000, 8192);
    b.movi(1, 0x10000);
    b.movi(2, iters);
    b.movi(3, 0);
    auto loop = b.label();
    b.load(4, 1, 0, 8);
    b.addi(4, 4, 3);
    b.store(1, 64, 4, 8);
    b.load(5, 1, 4096, 8);
    b.addi(1, 1, 128);
    b.addi(3, 3, 1);
    b.blt(3, 2, loop);
    b.halt();
    return b.build();
}

TEST(MshrTiming, InOrderBlockingReproducesLegacyNumbers)
{
    // The blocking core stalls for every miss's full latency, so
    // routing it through one MSHR entry must change nothing the model
    // reports: cycles, commits, per-level hit/miss/fill counts, and
    // architectural state.
    const Program p = mixedKernel(30);
    SimConfig legacy_cfg, mshr_cfg;
    legacy_cfg.inOrder = mshr_cfg.inOrder = true;
    mshr_cfg.memory.mshrEntries = 1;

    InOrderCore legacy(p, legacy_cfg);
    InOrderCore blocking(p, mshr_cfg);
    legacy.run(~std::uint64_t{0}, 10'000'000);
    blocking.run(~std::uint64_t{0}, 10'000'000);
    ASSERT_TRUE(legacy.halted());
    ASSERT_TRUE(blocking.halted());

    EXPECT_EQ(blocking.cycle(), legacy.cycle());
    EXPECT_EQ(blocking.committedInsts(), legacy.committedInsts());
    for (int r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(blocking.archReg(r), legacy.archReg(r)) << "r" << r;

    MemHierarchy &lh = legacy.hierarchy();
    MemHierarchy &bh = blocking.hierarchy();
    const Cache *pairs[][2] = {{&lh.l1i(), &bh.l1i()},
                               {&lh.l1d(), &bh.l1d()},
                               {&lh.l2(), &bh.l2()}};
    for (const auto &pair : pairs) {
        EXPECT_EQ(pair[0]->hits(), pair[1]->hits())
            << pair[0]->params().name;
        EXPECT_EQ(pair[0]->misses(), pair[1]->misses())
            << pair[0]->params().name;
        EXPECT_EQ(pair[0]->fills(), pair[1]->fills())
            << pair[0]->params().name;
    }
    EXPECT_TRUE(bh.mshrDrained());
}

TEST(MshrTiming, InOrderMshrOneMatchesMshrEight)
{
    // The blocking core can never overlap misses, so the entry count
    // must be irrelevant to it.
    const Program p = mixedKernel(30);
    SimConfig one, eight;
    one.inOrder = eight.inOrder = true;
    one.memory.mshrEntries = 1;
    eight.memory.mshrEntries = 8;
    InOrderCore a(p, one), b(p, eight);
    a.run(~std::uint64_t{0}, 10'000'000);
    b.run(~std::uint64_t{0}, 10'000'000);
    EXPECT_EQ(a.cycle(), b.cycle());
    EXPECT_EQ(a.committedInsts(), b.committedInsts());
}

} // namespace
} // namespace nda
