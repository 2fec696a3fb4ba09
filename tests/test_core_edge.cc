/**
 * @file
 * Stress and edge-case tests of the OoO core: tiny structural
 * configurations, resource exhaustion, fence storms, deep indirect
 * call chains, unaligned/cross-page memory traffic, and pathological
 * control flow — all differentially checked against the interpreter.
 */

#include <gtest/gtest.h>

#include "core/core_factory.hh"
#include "core/ooo_core.hh"
#include "harness/profiles.hh"
#include "isa/interpreter.hh"
#include "isa/random_program.hh"

namespace nda {
namespace {

/** Differential check helper for a fixed program. */
void
expectMatchesInterpreter(const Program &p, const SimConfig &cfg,
                         const char *what)
{
    Interpreter ref(p);
    ref.run(10'000'000);
    ASSERT_TRUE(ref.halted()) << what;
    auto core = makeCore(p, cfg);
    core->run(~std::uint64_t{0}, 50'000'000);
    ASSERT_TRUE(core->halted()) << what << " (" << cfg.name << ")";
    EXPECT_EQ(core->committedInsts(), ref.instCount()) << what;
    for (RegId r = 0; r < kNumArchRegs; ++r) {
        EXPECT_EQ(core->archReg(r), ref.reg(r))
            << what << " r" << int(r) << " (" << cfg.name << ")";
    }
}

SimConfig
tinyConfig()
{
    SimConfig cfg = makeProfile(Profile::kFullProtection);
    cfg.core.robEntries = 8;
    cfg.core.iqEntries = 4;
    cfg.core.lqEntries = 2;
    cfg.core.sqEntries = 2;
    cfg.core.numPhysRegs = kNumArchRegs + 8;
    cfg.core.fetchQueueEntries = 4;
    cfg.core.fetchWidth = 2;
    cfg.core.dispatchWidth = 2;
    cfg.core.issueWidth = 2;
    cfg.core.commitWidth = 2;
    return cfg;
}

TEST(CoreEdge, TinyStructuresStillCorrect)
{
    // A near-minimal machine must still execute random programs
    // correctly — every structural-full stall path gets exercised.
    for (std::uint64_t seed = 500; seed < 510; ++seed) {
        const Program p = generateRandomProgram(seed);
        expectMatchesInterpreter(p, tinyConfig(), "tiny");
    }
}

TEST(CoreEdge, SingleEntryQueuesDoNotDeadlock)
{
    SimConfig cfg = tinyConfig();
    cfg.core.lqEntries = 1;
    cfg.core.sqEntries = 1;
    cfg.core.iqEntries = 2;
    ProgramBuilder b("one");
    b.zeroSegment(0x1000, 256);
    b.movi(1, 0x1000);
    b.movi(18, 0);
    b.movi(19, 40);
    auto loop = b.label();
    b.andi(2, 18, 31);
    b.shli(2, 2, 3);
    b.add(3, 1, 2);
    b.store(3, 0, 18, 8);
    b.load(4, 3, 0, 8);
    b.add(5, 5, 4);
    b.addi(18, 18, 1);
    b.blt(18, 19, loop);
    b.halt();
    expectMatchesInterpreter(b.build(), cfg, "one-entry LSQ");
}

TEST(CoreEdge, FenceStorm)
{
    ProgramBuilder b("fences");
    b.zeroSegment(0x1000, 64);
    b.movi(1, 0x1000);
    b.movi(18, 0);
    b.movi(19, 30);
    auto loop = b.label();
    b.fence();
    b.store(1, 0, 18, 8);
    b.fence();
    b.load(2, 1, 0, 8);
    b.fence();
    b.add(3, 3, 2);
    b.addi(18, 18, 1);
    b.blt(18, 19, loop);
    b.halt();
    const Program prog = b.build();
    for (Profile p : {Profile::kOoo, Profile::kFullProtection})
        expectMatchesInterpreter(prog, makeProfile(p), "fence storm");
}

TEST(CoreEdge, UnalignedCrossPageTraffic)
{
    ProgramBuilder b("cross");
    b.zeroSegment(0x1000, 3 * 4096);
    b.movi(1, 0x1FF9);               // 7 bytes below a page boundary
    b.movi(2, 0x1122334455667788ULL);
    b.movi(18, 0);
    b.movi(19, 16);
    auto loop = b.label();
    b.store(1, 0, 2, 8);             // crosses the page every time
    b.load(3, 1, 0, 8);
    b.load(4, 1, 3, 4);              // crosses inside the word
    b.add(5, 3, 4);
    b.addi(1, 1, 8);
    b.addi(18, 18, 1);
    b.blt(18, 19, loop);
    b.halt();
    const Program prog = b.build();
    expectMatchesInterpreter(prog, makeProfile(Profile::kOoo),
                             "cross page");
    expectMatchesInterpreter(prog, makeProfile(Profile::kStrictBr),
                             "cross page");
}

TEST(CoreEdge, SelfModifyingRegisterChase)
{
    // rd == rs1 loads in a tight chain (renaming stress).
    ProgramBuilder b("self");
    b.zeroSegment(0x1000, 1024);
    for (int i = 0; i < 127; ++i)
        b.word(0x1000 + i * 8, 0x1000 + (i + 1) * 8u);
    b.word(0x1000 + 127 * 8, 0x1000);
    b.movi(1, 0x1000);
    b.movi(18, 0);
    b.movi(19, 300);
    auto loop = b.label();
    b.load(1, 1, 0, 8);              // r1 = [r1]
    b.addi(18, 18, 1);
    b.blt(18, 19, loop);
    b.halt();
    expectMatchesInterpreter(b.build(),
                             makeProfile(Profile::kRestrictedLoads),
                             "self chase");
}

TEST(CoreEdge, DenseIndirectCallMix)
{
    // Register-indirect calls through a rotating pointer set exercise
    // BTB replacement and RAS recovery together.
    ProgramBuilder b("icalls");
    auto main_l = b.futureLabel();
    b.jmp(main_l);
    std::vector<Addr> fns;
    for (int f = 0; f < 6; ++f) {
        fns.push_back(b.here());
        b.addi(2, 2, f + 1);
        b.ret(28);
    }
    std::vector<std::uint8_t> table;
    for (Addr pc : fns) {
        for (int j = 0; j < 8; ++j)
            table.push_back(static_cast<std::uint8_t>(pc >> (8 * j)));
    }
    b.segment(0x3000, std::move(table));
    b.bind(main_l);
    b.movi(1, 0x3000);
    b.movi(18, 0);
    b.movi(19, 200);
    auto loop = b.label();
    b.muli(3, 18, 7);
    b.andi(3, 3, 7);
    b.movi(4, 6);
    b.div(3, 3, 4);                  // index 0..1
    b.muli(5, 18, 5);
    b.andi(5, 5, 7);
    b.add(3, 3, 5);
    b.movi(4, 6);
    auto wrap = b.futureLabel();
    b.bltu(3, 4, wrap);
    b.movi(3, 0);
    b.bind(wrap);
    b.shli(3, 3, 3);
    b.add(6, 1, 3);
    b.load(7, 6, 0, 8);
    b.callr(28, 7);
    b.addi(18, 18, 1);
    b.blt(18, 19, loop);
    b.halt();
    const Program prog = b.build();
    for (Profile p :
         {Profile::kOoo, Profile::kPermissive, Profile::kInOrder})
        expectMatchesInterpreter(prog, makeProfile(p), "indirect mix");
}

TEST(CoreEdge, BackToBackFaults)
{
    // Several privileged accesses in a row, each caught by the
    // handler, which counts them and moves on.
    ProgramBuilder b("faults");
    b.segment(0x4000, {1, 2, 3, 4}, MemPerm::kKernel);
    b.movi(10, 0);                   // fault counter (via handler)
    b.movi(18, 0);
    auto next = b.label();
    b.movi(1, 0x4000);
    b.add(1, 1, 18);
    b.load(2, 1, 0, 1);              // always faults
    b.halt();                        // skipped
    auto handler = b.label();
    b.addi(10, 10, 1);
    b.addi(18, 18, 1);
    b.movi(3, 4);
    b.blt(18, 3, next);
    b.halt();
    b.faultHandlerAt(handler);
    const Program p = b.build();

    Interpreter ref(p);
    ref.run(1'000'000);
    for (Profile prof : {Profile::kOoo, Profile::kRestrictedLoads}) {
        auto core = makeCore(p, makeProfile(prof));
        core->run(~std::uint64_t{0}, 10'000'000);
        ASSERT_TRUE(core->halted());
        EXPECT_EQ(core->archReg(10), ref.reg(10));
        EXPECT_EQ(core->archReg(10), 4u);
    }
}

TEST(CoreEdge, WatchdogFreeLongRun)
{
    // A long random-program run across the most restrictive profile
    // must never hit the internal deadlock watchdog.
    RandomProgramParams params;
    params.blocks = 30;
    params.opsPerBlock = 10;
    params.loopIterations = 8;
    const Program p = generateRandomProgram(1234, params);
    auto core = makeCore(p, makeProfile(Profile::kFullProtection));
    core->run(~std::uint64_t{0}, 50'000'000);
    EXPECT_TRUE(core->halted());
}

TEST(CoreEdge, InterpreterOracleAgreesOnMsrPrograms)
{
    ProgramBuilder b("msrprog");
    b.initMsr(0, 7, false);
    b.initMsr(1, 11, false);
    b.movi(18, 0);
    b.movi(19, 20);
    auto loop = b.label();
    b.rdmsr(2, 0);
    b.rdmsr(3, 1);
    b.add(4, 2, 3);
    b.wrmsr(0, 4);
    b.addi(18, 18, 1);
    b.blt(18, 19, loop);
    b.halt();
    const Program p = b.build();
    Interpreter ref(p);
    ref.run(1'000'000);
    for (Profile prof : {Profile::kOoo, Profile::kFullProtection,
                         Profile::kInOrder}) {
        auto core = makeCore(p, makeProfile(prof));
        core->run(~std::uint64_t{0}, 10'000'000);
        ASSERT_TRUE(core->halted());
        EXPECT_EQ(core->msr(0), ref.msr(0)) << profileName(prof);
        EXPECT_EQ(core->archReg(4), ref.reg(4)) << profileName(prof);
    }
}

} // namespace
} // namespace nda
