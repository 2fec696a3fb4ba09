#include "isa/program.hh"

#include <utility>

#include "common/log.hh"

namespace nda {

ProgramBuilder::ProgramBuilder(std::string name)
{
    prog_.name = std::move(name);
}

ProgramBuilder::Label
ProgramBuilder::label()
{
    Label l = futureLabel();
    bind(l);
    return l;
}

ProgramBuilder::Label
ProgramBuilder::futureLabel()
{
    Label l;
    l.id = static_cast<int>(labelPcs_.size());
    labelPcs_.push_back(-1);
    return l;
}

void
ProgramBuilder::bind(Label l)
{
    NDA_ASSERT(l.valid() &&
               static_cast<std::size_t>(l.id) < labelPcs_.size(),
               "binding invalid label");
    NDA_ASSERT(labelPcs_[l.id] < 0, "label %d bound twice", l.id);
    labelPcs_[l.id] = static_cast<std::int64_t>(prog_.code.size());
}

ProgramBuilder &
ProgramBuilder::emit(const MicroOp &uop)
{
    prog_.code.push_back(uop);
    return *this;
}

ProgramBuilder &
ProgramBuilder::padToPc(Addr pc)
{
    NDA_ASSERT(pc >= prog_.code.size(),
               "padToPc(%llu) target already passed (at %zu)",
               static_cast<unsigned long long>(pc), prog_.code.size());
    MicroOp nop_op;
    nop_op.op = Opcode::kNop;
    prog_.code.resize(static_cast<std::size_t>(pc), nop_op);
    return *this;
}

namespace {

MicroOp
makeOp(Opcode op, RegId rd, RegId rs1, RegId rs2, std::int64_t imm,
       std::uint8_t size = 8)
{
    MicroOp u;
    u.op = op;
    u.rd = rd;
    u.rs1 = rs1;
    u.rs2 = rs2;
    u.imm = imm;
    u.size = size;
    return u;
}

} // namespace

ProgramBuilder &
ProgramBuilder::nop()
{
    return emit(makeOp(Opcode::kNop, 0, 0, 0, 0));
}

ProgramBuilder &
ProgramBuilder::halt()
{
    return emit(makeOp(Opcode::kHalt, 0, 0, 0, 0));
}

ProgramBuilder &
ProgramBuilder::movi(RegId rd, std::int64_t imm)
{
    return emit(makeOp(Opcode::kMovImm, rd, 0, 0, imm));
}

ProgramBuilder &
ProgramBuilder::mov(RegId rd, RegId rs1)
{
    return emit(makeOp(Opcode::kMov, rd, rs1, 0, 0));
}

#define NDA_DEF_ALU2(fn, opcode) \
    ProgramBuilder & \
    ProgramBuilder::fn(RegId rd, RegId rs1, RegId rs2) \
    { \
        return emit(makeOp(Opcode::opcode, rd, rs1, rs2, 0)); \
    }

NDA_DEF_ALU2(add, kAdd)
NDA_DEF_ALU2(sub, kSub)
NDA_DEF_ALU2(and_, kAnd)
NDA_DEF_ALU2(or_, kOr)
NDA_DEF_ALU2(xor_, kXor)
NDA_DEF_ALU2(shl, kShl)
NDA_DEF_ALU2(shr, kShr)
NDA_DEF_ALU2(mul, kMul)
NDA_DEF_ALU2(div, kDiv)
NDA_DEF_ALU2(cmpeq, kCmpEq)
NDA_DEF_ALU2(cmplt, kCmpLt)
NDA_DEF_ALU2(cmpltu, kCmpLtu)
#undef NDA_DEF_ALU2

#define NDA_DEF_ALUI(fn, opcode) \
    ProgramBuilder & \
    ProgramBuilder::fn(RegId rd, RegId rs1, std::int64_t imm) \
    { \
        return emit(makeOp(Opcode::opcode, rd, rs1, 0, imm)); \
    }

NDA_DEF_ALUI(addi, kAddImm)
NDA_DEF_ALUI(subi, kSubImm)
NDA_DEF_ALUI(andi, kAndImm)
NDA_DEF_ALUI(ori, kOrImm)
NDA_DEF_ALUI(xori, kXorImm)
NDA_DEF_ALUI(shli, kShlImm)
NDA_DEF_ALUI(shri, kShrImm)
NDA_DEF_ALUI(muli, kMulImm)
#undef NDA_DEF_ALUI

ProgramBuilder &
ProgramBuilder::load(RegId rd, RegId rs1, std::int64_t disp,
                     std::uint8_t size)
{
    return emit(makeOp(Opcode::kLoad, rd, rs1, 0, disp, size));
}

ProgramBuilder &
ProgramBuilder::store(RegId rs1, std::int64_t disp, RegId rs2,
                      std::uint8_t size)
{
    return emit(makeOp(Opcode::kStore, 0, rs1, rs2, disp, size));
}

ProgramBuilder &
ProgramBuilder::clflush(RegId rs1, std::int64_t disp)
{
    return emit(makeOp(Opcode::kClflush, 0, rs1, 0, disp));
}

ProgramBuilder &
ProgramBuilder::prefetch(RegId rs1, std::int64_t disp)
{
    return emit(makeOp(Opcode::kPrefetch, 0, rs1, 0, disp));
}

ProgramBuilder &
ProgramBuilder::rdmsr(RegId rd, unsigned msr)
{
    NDA_ASSERT(msr < kNumMsrRegs, "msr index %u out of range", msr);
    return emit(makeOp(Opcode::kRdMsr, rd, 0, 0,
                       static_cast<std::int64_t>(msr)));
}

ProgramBuilder &
ProgramBuilder::wrmsr(unsigned msr, RegId rs1)
{
    NDA_ASSERT(msr < kNumMsrRegs, "msr index %u out of range", msr);
    return emit(makeOp(Opcode::kWrMsr, 0, rs1, 0,
                       static_cast<std::int64_t>(msr)));
}

ProgramBuilder &
ProgramBuilder::rdtsc(RegId rd)
{
    return emit(makeOp(Opcode::kRdTsc, rd, 0, 0, 0));
}

ProgramBuilder &
ProgramBuilder::fence()
{
    return emit(makeOp(Opcode::kFence, 0, 0, 0, 0));
}

ProgramBuilder &
ProgramBuilder::specoff()
{
    return emit(makeOp(Opcode::kSpecOff, 0, 0, 0, 0));
}

ProgramBuilder &
ProgramBuilder::specon()
{
    return emit(makeOp(Opcode::kSpecOn, 0, 0, 0, 0));
}

ProgramBuilder &
ProgramBuilder::emitBranch(Opcode op, RegId rd, RegId rs1, RegId rs2,
                           Label target)
{
    NDA_ASSERT(target.valid(), "branch to invalid label");
    fixups_[prog_.code.size()] = target.id;
    return emit(makeOp(op, rd, rs1, rs2, 0));
}

ProgramBuilder &
ProgramBuilder::jmp(Label target)
{
    return emitBranch(Opcode::kJmp, 0, 0, 0, target);
}

ProgramBuilder &
ProgramBuilder::call(RegId rd, Label target)
{
    return emitBranch(Opcode::kCall, rd, 0, 0, target);
}

#define NDA_DEF_CBR(fn, opcode) \
    ProgramBuilder & \
    ProgramBuilder::fn(RegId rs1, RegId rs2, Label target) \
    { \
        return emitBranch(Opcode::opcode, 0, rs1, rs2, target); \
    }

NDA_DEF_CBR(beq, kBeq)
NDA_DEF_CBR(bne, kBne)
NDA_DEF_CBR(blt, kBlt)
NDA_DEF_CBR(bge, kBge)
NDA_DEF_CBR(bltu, kBltu)
NDA_DEF_CBR(bgeu, kBgeu)
#undef NDA_DEF_CBR

ProgramBuilder &
ProgramBuilder::jmpr(RegId rs1)
{
    return emit(makeOp(Opcode::kJmpReg, 0, rs1, 0, 0));
}

ProgramBuilder &
ProgramBuilder::callr(RegId rd, RegId rs1)
{
    return emit(makeOp(Opcode::kCallReg, rd, rs1, 0, 0));
}

ProgramBuilder &
ProgramBuilder::ret(RegId rs1)
{
    return emit(makeOp(Opcode::kRet, 0, rs1, 0, 0));
}

ProgramBuilder &
ProgramBuilder::segment(Addr base, std::vector<std::uint8_t> bytes,
                        MemPerm perm)
{
    prog_.data.push_back({base, std::move(bytes), perm});
    return *this;
}

ProgramBuilder &
ProgramBuilder::zeroSegment(Addr base, std::size_t len, MemPerm perm)
{
    prog_.data.push_back({base, std::vector<std::uint8_t>(len, 0), perm});
    return *this;
}

ProgramBuilder &
ProgramBuilder::word(Addr base, std::uint64_t value, MemPerm perm)
{
    std::vector<std::uint8_t> bytes(8);
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    return segment(base, std::move(bytes), perm);
}

ProgramBuilder &
ProgramBuilder::initReg(RegId r, RegVal v)
{
    NDA_ASSERT(r < kNumArchRegs, "register %u out of range", r);
    prog_.initialRegs[r] = v;
    return *this;
}

ProgramBuilder &
ProgramBuilder::initMsr(unsigned msr, RegVal v, bool privileged)
{
    NDA_ASSERT(msr < kNumMsrRegs, "msr index %u out of range", msr);
    prog_.initialMsrs[msr] = v;
    if (privileged)
        prog_.privilegedMsrMask |= static_cast<std::uint8_t>(1u << msr);
    return *this;
}

ProgramBuilder &
ProgramBuilder::faultHandlerAt(Label l)
{
    NDA_ASSERT(l.valid(), "fault handler label invalid");
    pendingFaultHandler_ = l.id;
    return *this;
}

Program
ProgramBuilder::build()
{
    NDA_ASSERT(!built_, "program '%s' already built; reuse the Program",
               prog_.name.c_str());
    built_ = true;
    for (const auto &[pc, label_id] : fixups_) {
        NDA_ASSERT(labelPcs_[label_id] >= 0,
                   "label %d used at pc %zu but never bound",
                   label_id, pc);
        prog_.code[pc].imm = labelPcs_[label_id];
    }
    if (pendingFaultHandler_ >= 0) {
        NDA_ASSERT(labelPcs_[pendingFaultHandler_] >= 0,
                   "fault handler label never bound");
        prog_.faultHandler =
            static_cast<Addr>(labelPcs_[pendingFaultHandler_]);
    }
    NDA_ASSERT(!prog_.code.empty(), "empty program");
    // Drop the growth slack emission left, as a copy would: callers
    // keep the Program alive for the whole run.
    prog_.code.shrink_to_fit();
    prog_.data.shrink_to_fit();
    return std::move(prog_);
}

} // namespace nda
