/**
 * @file
 * Unit tests for the ISA layer: opcode traits, micro-op disassembly,
 * the program builder, and the shared functional semantics.
 */

#include <gtest/gtest.h>

#include "isa/interpreter.hh"
#include "isa/opcode.hh"
#include "isa/program.hh"

namespace nda {
namespace {

TEST(OpTraits, LoadStoreClassification)
{
    EXPECT_TRUE(opTraits(Opcode::kLoad).isLoad);
    EXPECT_TRUE(opTraits(Opcode::kLoad).isLoadLike);
    EXPECT_TRUE(opTraits(Opcode::kStore).isStore);
    EXPECT_FALSE(opTraits(Opcode::kStore).isLoad);
    // RDMSR is load-like for NDA but not a memory load (paper §5.2).
    EXPECT_TRUE(opTraits(Opcode::kRdMsr).isLoadLike);
    EXPECT_FALSE(opTraits(Opcode::kRdMsr).isLoad);
}

TEST(OpTraits, BranchClassification)
{
    EXPECT_TRUE(opTraits(Opcode::kBeq).isCondBranch);
    EXPECT_TRUE(opTraits(Opcode::kBeq).isSpeculable);
    // Direct unconditional jumps never mispredict (paper §5.1).
    EXPECT_TRUE(opTraits(Opcode::kJmp).isBranch);
    EXPECT_FALSE(opTraits(Opcode::kJmp).isSpeculable);
    EXPECT_FALSE(opTraits(Opcode::kCall).isSpeculable);
    EXPECT_TRUE(opTraits(Opcode::kCall).isCall);
    EXPECT_TRUE(opTraits(Opcode::kCall).hasDest);
    EXPECT_TRUE(opTraits(Opcode::kJmpReg).isIndirect);
    EXPECT_TRUE(opTraits(Opcode::kJmpReg).isSpeculable);
    EXPECT_TRUE(opTraits(Opcode::kRet).isReturn);
    EXPECT_TRUE(opTraits(Opcode::kCallReg).isCall);
}

TEST(OpTraits, SerializingOps)
{
    EXPECT_TRUE(opTraits(Opcode::kRdTsc).serializeAtHead);
    EXPECT_TRUE(opTraits(Opcode::kFence).serializeAtHead);
    EXPECT_TRUE(opTraits(Opcode::kWrMsr).serializeAtHead);
    EXPECT_FALSE(opTraits(Opcode::kRdMsr).serializeAtHead);
}

TEST(OpTraits, EveryOpcodeHasMnemonic)
{
    for (unsigned i = 0;
         i < static_cast<unsigned>(Opcode::kNumOpcodes); ++i) {
        EXPECT_FALSE(opName(static_cast<Opcode>(i)).empty());
    }
}

TEST(OpTraits, LatencyCycles)
{
    EXPECT_EQ(opLatencyCycles(Opcode::kAdd), 1u);
    EXPECT_EQ(opLatencyCycles(Opcode::kMul), 3u);
    EXPECT_EQ(opLatencyCycles(Opcode::kDiv), 12u);
}

TEST(MicroOp, DisasmFormats)
{
    MicroOp ld;
    ld.op = Opcode::kLoad;
    ld.rd = 3;
    ld.rs1 = 4;
    ld.imm = 8;
    ld.size = 4;
    EXPECT_EQ(ld.disasm(), "ld r3, [r4+8] (4)");

    MicroOp add;
    add.op = Opcode::kAdd;
    add.rd = 1;
    add.rs1 = 2;
    add.rs2 = 3;
    EXPECT_EQ(add.disasm(), "add r1, r2, r3");

    MicroOp br;
    br.op = Opcode::kBlt;
    br.rs1 = 5;
    br.rs2 = 6;
    br.imm = 42;
    EXPECT_EQ(br.disasm(), "blt r5, r6, 42");
}

TEST(ProgramBuilder, ForwardLabelFixup)
{
    ProgramBuilder b("t");
    auto end = b.futureLabel();
    b.jmp(end);
    b.nop();
    b.bind(end);
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.code[0].imm, 2);
}

TEST(ProgramBuilder, BackwardLabel)
{
    ProgramBuilder b("t");
    b.movi(1, 0);
    auto loop = b.label();
    b.addi(1, 1, 1);
    b.movi(2, 3);
    b.blt(1, 2, loop);
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.code[3].imm, 1);
}

TEST(ProgramBuilder, PadToPcInsertsNops)
{
    ProgramBuilder b("t");
    b.nop();
    b.padToPc(10);
    EXPECT_EQ(b.here(), 10u);
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.code.size(), 11u);
    EXPECT_EQ(p.code[5].op, Opcode::kNop);
}

TEST(ProgramBuilder, WordSegmentLittleEndian)
{
    ProgramBuilder b("t");
    b.word(0x1000, 0x1122334455667788ULL);
    b.halt();
    Program p = b.build();
    ASSERT_EQ(p.data.size(), 1u);
    EXPECT_EQ(p.data[0].bytes[0], 0x88);
    EXPECT_EQ(p.data[0].bytes[7], 0x11);
}

TEST(ProgramBuilder, InitMsrPrivileged)
{
    ProgramBuilder b("t");
    b.initMsr(3, 99, true);
    b.initMsr(1, 5, false);
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.initialMsrs[3], 99u);
    EXPECT_TRUE(p.privilegedMsrMask & (1 << 3));
    EXPECT_FALSE(p.privilegedMsrMask & (1 << 1));
}

TEST(ProgramBuilder, FaultHandlerResolved)
{
    ProgramBuilder b("t");
    b.nop();
    auto h = b.label();
    b.halt();
    b.faultHandlerAt(h);
    Program p = b.build();
    EXPECT_EQ(p.faultHandler, 1u);
}

TEST(ProgramBuilder, SecondBuildIsFatal)
{
    // build() moves the program (and its data image) out, so a second
    // call has nothing left to return.
    ProgramBuilder b("once");
    b.word(0x1000, 7);
    b.halt();
    const Program p = b.build();
    EXPECT_EQ(p.data.size(), 1u);
    EXPECT_DEATH(b.build(), "already built");
}

TEST(EvalAlu, ArithmeticSemantics)
{
    EXPECT_EQ(evalAlu(Opcode::kAdd, 2, 3, 0), 5u);
    EXPECT_EQ(evalAlu(Opcode::kSub, 2, 3, 0), static_cast<RegVal>(-1));
    EXPECT_EQ(evalAlu(Opcode::kMul, 7, 6, 0), 42u);
    EXPECT_EQ(evalAlu(Opcode::kDiv, 42, 6, 0), 7u);
    EXPECT_EQ(evalAlu(Opcode::kDiv, 42, 0, 0), 0u) << "div-by-0 is 0";
    EXPECT_EQ(evalAlu(Opcode::kShl, 1, 65, 0), 2u) << "shift mod 64";
    EXPECT_EQ(evalAlu(Opcode::kAndImm, 0xFF, 0, 0x0F), 0x0Fu);
    EXPECT_EQ(evalAlu(Opcode::kMovImm, 0, 0, -5),
              static_cast<RegVal>(-5));
}

TEST(EvalAlu, Comparisons)
{
    EXPECT_EQ(evalAlu(Opcode::kCmpEq, 3, 3, 0), 1u);
    EXPECT_EQ(evalAlu(Opcode::kCmpLt, static_cast<RegVal>(-1), 1, 0),
              1u)
        << "signed compare";
    EXPECT_EQ(evalAlu(Opcode::kCmpLtu, static_cast<RegVal>(-1), 1, 0),
              0u)
        << "unsigned compare";
}

TEST(EvalCondBranch, AllConditions)
{
    EXPECT_TRUE(evalCondBranch(Opcode::kBeq, 1, 1));
    EXPECT_TRUE(evalCondBranch(Opcode::kBne, 1, 2));
    EXPECT_TRUE(
        evalCondBranch(Opcode::kBlt, static_cast<RegVal>(-2), 1));
    EXPECT_FALSE(
        evalCondBranch(Opcode::kBltu, static_cast<RegVal>(-2), 1));
    EXPECT_TRUE(evalCondBranch(Opcode::kBge, 5, 5));
    EXPECT_TRUE(
        evalCondBranch(Opcode::kBgeu, static_cast<RegVal>(-1), 5));
}

TEST(EvalNextPc, BranchTargets)
{
    MicroOp jmp;
    jmp.op = Opcode::kJmp;
    jmp.imm = 99;
    EXPECT_EQ(evalNextPc(jmp, 10, 0, 0), 99u);

    MicroOp beq;
    beq.op = Opcode::kBeq;
    beq.imm = 50;
    EXPECT_EQ(evalNextPc(beq, 10, 1, 1), 50u);
    EXPECT_EQ(evalNextPc(beq, 10, 1, 2), 11u);

    MicroOp ret;
    ret.op = Opcode::kRet;
    EXPECT_EQ(evalNextPc(ret, 10, 1234, 0), 1234u);

    MicroOp add;
    add.op = Opcode::kAdd;
    EXPECT_EQ(evalNextPc(add, 10, 0, 0), 11u);
}

} // namespace
} // namespace nda
