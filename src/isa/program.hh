/**
 * @file
 * Static program representation and a small assembler-style builder.
 *
 * A Program bundles the instruction stream (PC = instruction index),
 * an initial data-memory image with page permissions, initial register
 * values, and an optional fault-handler PC (used by chosen-code attack
 * PoCs that catch the Meltdown-style fault, paper Listing 2).
 */

#ifndef NDASIM_ISA_PROGRAM_HH
#define NDASIM_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/microop.hh"

namespace nda {

/** One initialized span of data memory. */
struct DataSegment {
    Addr base = 0;
    std::vector<std::uint8_t> bytes;
    MemPerm perm = MemPerm::kUser;
};

/** A complete executable image for the simulator. */
struct Program {
    std::string name;
    std::vector<MicroOp> code;
    std::vector<DataSegment> data;
    RegVal initialRegs[kNumArchRegs] = {};
    RegVal initialMsrs[kNumMsrRegs] = {};
    /** MSR indices that fault when read from user mode. */
    std::uint8_t privilegedMsrMask = 0;
    Addr entry = 0;
    /** Entry PC for SMT hardware thread 1+ (co-resident context);
     *  ~0 = threads beyond 0 start at `entry` (homogeneous co-run). */
    Addr smtEntry = ~Addr{0};
    /** PC to redirect to on a committed fault; ~0 = halt on fault. */
    Addr faultHandler = ~Addr{0};

    std::size_t size() const { return code.size(); }

    const MicroOp &
    at(Addr pc) const
    {
        return code[static_cast<std::size_t>(pc)];
    }

    bool
    validPc(Addr pc) const
    {
        return static_cast<std::size_t>(pc) < code.size();
    }
};

/**
 * What an execution engine (interpreter, timing core) keeps of a
 * Program: the code and its fault handling. The data image and the
 * initial registers go into the engine's own state at construction, so
 * no engine holds a second copy of a (megabyte-sized) image.
 */
struct ProgramCode {
    explicit ProgramCode(const Program &prog)
        : code(prog.code), faultHandler(prog.faultHandler),
          privilegedMsrMask(prog.privilegedMsrMask)
    {
    }

    std::vector<MicroOp> code;
    /** PC to redirect to on a committed fault; ~0 = halt on fault. */
    Addr faultHandler;
    /** MSR indices that fault when read from user mode. */
    std::uint8_t privilegedMsrMask;

    const MicroOp &
    at(Addr pc) const
    {
        return code[static_cast<std::size_t>(pc)];
    }

    bool
    validPc(Addr pc) const
    {
        return static_cast<std::size_t>(pc) < code.size();
    }
};

/**
 * Fluent builder for Programs with forward-referencable labels.
 *
 * Usage:
 *   ProgramBuilder b("demo");
 *   b.movi(1, 0);
 *   auto loop = b.label();
 *   b.addi(1, 1, 1).blt(1, 2, loop);
 *   Program p = b.build();
 */
class ProgramBuilder
{
  public:
    /** Opaque label handle; resolves to an instruction index. */
    struct Label {
        int id = -1;
        bool valid() const { return id >= 0; }
    };

    explicit ProgramBuilder(std::string name);

    /** Create a label bound to the *next* emitted instruction. */
    Label label();

    /** Create an unbound label to place later with `bind`. */
    Label futureLabel();

    /** Bind a future label to the next emitted instruction. */
    void bind(Label l);

    /** Current instruction index (== next emitted PC). */
    Addr here() const { return prog_.code.size(); }

    // --- raw emission ---------------------------------------------------
    ProgramBuilder &emit(const MicroOp &uop);

    /** Pad with nops so the next instruction lands at `pc` exactly
     *  (used to place BTB-aliasing branches). */
    ProgramBuilder &padToPc(Addr pc);

    // --- convenience emitters (one per opcode) --------------------------
    ProgramBuilder &nop();
    ProgramBuilder &halt();
    ProgramBuilder &movi(RegId rd, std::int64_t imm);
    ProgramBuilder &mov(RegId rd, RegId rs1);
    ProgramBuilder &add(RegId rd, RegId rs1, RegId rs2);
    ProgramBuilder &sub(RegId rd, RegId rs1, RegId rs2);
    ProgramBuilder &and_(RegId rd, RegId rs1, RegId rs2);
    ProgramBuilder &or_(RegId rd, RegId rs1, RegId rs2);
    ProgramBuilder &xor_(RegId rd, RegId rs1, RegId rs2);
    ProgramBuilder &shl(RegId rd, RegId rs1, RegId rs2);
    ProgramBuilder &shr(RegId rd, RegId rs1, RegId rs2);
    ProgramBuilder &mul(RegId rd, RegId rs1, RegId rs2);
    ProgramBuilder &div(RegId rd, RegId rs1, RegId rs2);
    ProgramBuilder &addi(RegId rd, RegId rs1, std::int64_t imm);
    ProgramBuilder &subi(RegId rd, RegId rs1, std::int64_t imm);
    ProgramBuilder &andi(RegId rd, RegId rs1, std::int64_t imm);
    ProgramBuilder &ori(RegId rd, RegId rs1, std::int64_t imm);
    ProgramBuilder &xori(RegId rd, RegId rs1, std::int64_t imm);
    ProgramBuilder &shli(RegId rd, RegId rs1, std::int64_t imm);
    ProgramBuilder &shri(RegId rd, RegId rs1, std::int64_t imm);
    ProgramBuilder &muli(RegId rd, RegId rs1, std::int64_t imm);
    ProgramBuilder &cmpeq(RegId rd, RegId rs1, RegId rs2);
    ProgramBuilder &cmplt(RegId rd, RegId rs1, RegId rs2);
    ProgramBuilder &cmpltu(RegId rd, RegId rs1, RegId rs2);
    ProgramBuilder &load(RegId rd, RegId rs1, std::int64_t disp,
                         std::uint8_t size = 8);
    ProgramBuilder &store(RegId rs1, std::int64_t disp, RegId rs2,
                          std::uint8_t size = 8);
    ProgramBuilder &clflush(RegId rs1, std::int64_t disp = 0);
    ProgramBuilder &prefetch(RegId rs1, std::int64_t disp = 0);
    ProgramBuilder &rdmsr(RegId rd, unsigned msr);
    ProgramBuilder &wrmsr(unsigned msr, RegId rs1);
    ProgramBuilder &rdtsc(RegId rd);
    ProgramBuilder &fence();
    /** Paper SS8 Listing 4: stop/resume control speculation. */
    ProgramBuilder &specoff();
    ProgramBuilder &specon();
    ProgramBuilder &jmp(Label target);
    ProgramBuilder &call(RegId rd, Label target);
    ProgramBuilder &beq(RegId rs1, RegId rs2, Label target);
    ProgramBuilder &bne(RegId rs1, RegId rs2, Label target);
    ProgramBuilder &blt(RegId rs1, RegId rs2, Label target);
    ProgramBuilder &bge(RegId rs1, RegId rs2, Label target);
    ProgramBuilder &bltu(RegId rs1, RegId rs2, Label target);
    ProgramBuilder &bgeu(RegId rs1, RegId rs2, Label target);
    ProgramBuilder &jmpr(RegId rs1);
    ProgramBuilder &callr(RegId rd, RegId rs1);
    ProgramBuilder &ret(RegId rs1);

    // --- data / environment ---------------------------------------------
    /** Add an initialized data segment. */
    ProgramBuilder &segment(Addr base, std::vector<std::uint8_t> bytes,
                            MemPerm perm = MemPerm::kUser);

    /** Add a zero-filled data segment. */
    ProgramBuilder &zeroSegment(Addr base, std::size_t len,
                                MemPerm perm = MemPerm::kUser);

    /** Store a little-endian 64-bit word into a (new) 8-byte segment. */
    ProgramBuilder &word(Addr base, std::uint64_t value,
                         MemPerm perm = MemPerm::kUser);

    ProgramBuilder &initReg(RegId r, RegVal v);
    ProgramBuilder &initMsr(unsigned msr, RegVal v, bool privileged);
    ProgramBuilder &faultHandlerAt(Label l);

    /** Resolve all labels and produce the Program. */
    Program build();

  private:
    ProgramBuilder &emitBranch(Opcode op, RegId rd, RegId rs1, RegId rs2,
                               Label target);

    Program prog_;
    /** label id -> bound instruction index (-1 while unbound). */
    std::vector<std::int64_t> labelPcs_;
    /** instruction index -> label id to patch into imm. */
    std::map<std::size_t, int> fixups_;
    int pendingFaultHandler_ = -1;
};

} // namespace nda

#endif // NDASIM_ISA_PROGRAM_HH
