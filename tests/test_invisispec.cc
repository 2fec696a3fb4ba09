/**
 * @file
 * Tests of the InvisiSpec comparison model (paper §6.1, Table 2 rows
 * 7-8): speculative loads access the hierarchy invisibly, exposure
 * happens at the visibility point, and IS-Future validates before
 * retirement.
 */

#include <gtest/gtest.h>

#include "core/ooo_core.hh"
#include "isa/program.hh"

namespace nda {
namespace {

/** A wrong-path load under a slow mispredicted branch. */
Program
wrongPathLoadProgram()
{
    ProgramBuilder b("wp");
    b.word(0x1000, 1);               // condition (slow)
    b.zeroSegment(0x9000, 64);
    b.movi(1, 0x1000);
    b.clflush(1, 0);
    b.fence();
    b.load(2, 1, 0, 8);
    b.movi(3, 0);
    auto skip = b.futureLabel();
    b.bne(2, 3, skip);               // taken; predicted not-taken
    b.movi(4, 0x9000);
    b.load(5, 4, 0, 8);              // wrong-path load
    b.bind(skip);
    b.halt();
    return b.build();
}

TEST(InvisiSpec, WrongPathLoadLeavesNoTrace)
{
    for (auto mode :
         {InvisiSpecMode::kSpectre, InvisiSpecMode::kFuture}) {
        SimConfig cfg;
        cfg.security.invisiSpec = mode;
        OooCore core(wrongPathLoadProgram(), cfg);
        core.run(~std::uint64_t{0}, 100000);
        ASSERT_TRUE(core.halted());
        EXPECT_FALSE(core.hierarchy().l1d().probe(0x9000))
            << invisiSpecName(mode)
            << ": squashed shadow load must not fill the cache";
        EXPECT_FALSE(core.hierarchy().l2().probe(0x9000));
    }
}

TEST(InvisiSpec, BaselineLeavesTrace)
{
    SimConfig cfg;
    OooCore core(wrongPathLoadProgram(), cfg);
    core.run(~std::uint64_t{0}, 100000);
    ASSERT_TRUE(core.halted());
    EXPECT_TRUE(core.hierarchy().l1d().probe(0x9000));
}

TEST(InvisiSpec, CorrectPathLoadEventuallyExposed)
{
    // A correct-path load under a (correctly-predicted) branch is
    // shadow at first but must be exposed so later code gets hits.
    ProgramBuilder b("expose");
    b.word(0x1000, 1);
    b.word(0x9000, 5);
    b.movi(1, 0x1000);
    b.clflush(1, 0);
    b.fence();
    b.load(2, 1, 0, 8);
    b.movi(3, 0);
    auto go = b.futureLabel();
    b.beq(2, 3, go);                 // not taken (1 != 0)
    b.movi(4, 0x9000);
    b.load(5, 4, 0, 8);              // correct-path shadow load
    b.bind(go);
    b.halt();
    const Program prog = b.build();
    for (auto mode :
         {InvisiSpecMode::kSpectre, InvisiSpecMode::kFuture}) {
        SimConfig cfg;
        cfg.security.invisiSpec = mode;
        OooCore core(prog, cfg);
        core.run(~std::uint64_t{0}, 100000);
        ASSERT_TRUE(core.halted());
        EXPECT_EQ(core.archReg(5), 5u);
        EXPECT_TRUE(core.hierarchy().l1d().probe(0x9000))
            << invisiSpecName(mode)
            << ": committed shadow load must be exposed";
    }
}

TEST(InvisiSpec, FutureSlowerThanSpectre)
{
    // Validation stalls make IS-Future cost more on miss-heavy code.
    ProgramBuilder b("missy");
    b.zeroSegment(0x100000, 1 << 20);
    b.movi(1, 0x100000);
    b.movi(18, 0);
    b.movi(19, 2000);
    auto loop = b.label();
    b.muli(2, 18, 0x9E3779B1);
    b.andi(2, 2, 0xFFFF8);
    b.add(3, 1, 2);
    b.load(4, 3, 0, 8);
    b.add(5, 5, 4);
    b.addi(18, 18, 1);
    b.blt(18, 19, loop);
    b.halt();
    const Program p = b.build();

    Cycle cycles[3] = {};
    int i = 0;
    for (auto mode : {InvisiSpecMode::kOff, InvisiSpecMode::kSpectre,
                      InvisiSpecMode::kFuture}) {
        SimConfig cfg;
        cfg.security.invisiSpec = mode;
        OooCore core(p, cfg);
        core.run(~std::uint64_t{0}, 10'000'000);
        ASSERT_TRUE(core.halted());
        cycles[i++] = core.cycle();
    }
    EXPECT_LE(cycles[0], cycles[1]);
    EXPECT_LT(cycles[1], cycles[2])
        << "IS-Future validation must cost more than IS-Spectre";
}

TEST(InvisiSpec, ShadowLoadStillReturnsCorrectData)
{
    ProgramBuilder b("data");
    b.word(0x2000, 0xABCD);
    b.word(0x1000, 1);
    b.movi(1, 0x1000);
    b.clflush(1, 0);
    b.fence();
    b.load(2, 1, 0, 8);
    b.movi(3, 0);
    auto go = b.futureLabel();
    b.beq(2, 3, go);                 // not taken
    b.movi(4, 0x2000);
    b.load(5, 4, 0, 8);
    b.bind(go);
    b.halt();
    SimConfig cfg;
    cfg.security.invisiSpec = InvisiSpecMode::kFuture;
    OooCore core(b.build(), cfg);
    core.run(~std::uint64_t{0}, 100000);
    EXPECT_EQ(core.archReg(5), 0xABCDu);
}

} // namespace
} // namespace nda
