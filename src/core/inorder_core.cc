#include "core/inorder_core.hh"

#include "common/log.hh"
#include "core/snapshot.hh"
#include "dift/taint_engine.hh"
#include "isa/interpreter.hh"
#include "obs/cpi_stack.hh"

namespace nda {

namespace {

/** The blocking core's 3-class stall maps directly onto the slot
 *  vocabulary: it has no speculation, queues, or MSHR pressure. */
StallCause
stallSlotCause(CycleClass cls)
{
    switch (cls) {
      case CycleClass::kMemoryStall: return StallCause::kMemLatency;
      case CycleClass::kBackendStall: return StallCause::kExecLatency;
      default: return StallCause::kFrontend;
    }
}

} // namespace

InOrderCore::InOrderCore(const Program &prog, const SimConfig &cfg)
    : prog_(prog), cfg_(cfg), hier_(cfg.memory)
{
    loadDataSegments(prog, mem_);
    for (int i = 0; i < kNumArchRegs; ++i)
        regs_[i] = prog.initialRegs[i];
    for (int i = 0; i < kNumMsrRegs; ++i)
        msrs_[i] = prog.initialMsrs[i];
    pc_ = prog.entry;
}

void
InOrderCore::tick()
{
    if (halted_)
        return;
    ++cycle_;
    ++counters_.cycles;
    // Non-blocking policy: fills land while the core is stalled on
    // them, so mshrEntries = 1 reproduces the eager blocking numbers.
    // The +1 matches the eager charging convention: a miss charged
    // `lat` at cycle c overlaps its commit cycle (cost += lat - 1), so
    // the next access to that line happens at c + lat - 1 and must see
    // the fill scheduled for c + lat — drain everything due by the
    // END of this cycle.
    hier_.advance(cycle_ + 1);
    if (cycle_ < busyUntil_) {
        ++counters_.cycleClass[static_cast<int>(stallClass_)];
        if (cpiStack_) {
            cpiStack_->onCycle();
            cpiStack_->addSlots(stallSlotCause(stallClass_), 1,
                                stallPc_);
        }
        return;
    }
    const Addr inst_pc = pc_;
    const std::uint64_t before = committed_;
    const Cycle cost = step();
    busyUntil_ = cycle_ + cost;
    stallPc_ = inst_pc; // subsequent stall cycles pay for this inst
    ++counters_.cycleClass[static_cast<int>(CycleClass::kCommit)];
    if (cpiStack_) {
        cpiStack_->onCycle();
        // The halting edge (invalid PC) retires nothing — its one
        // slot is a window artifact, not a stall.
        cpiStack_->addSlots(committed_ > before ? StallCause::kCommit
                                                : StallCause::kIdle,
                            1, inst_pc);
    }
}

void
InOrderCore::run(std::uint64_t max_insts, Cycle max_cycles)
{
    const std::uint64_t target = committed_ + max_insts;
    const Cycle limit =
        max_cycles == ~Cycle{0} ? ~Cycle{0} : cycle_ + max_cycles;
    while (!halted_ && committed_ < target && cycle_ < limit)
        tick();
}

TaintWord
InOrderCore::archRegTaint(RegId r) const
{
    return dift_ ? dift_->archRegTaint(r) : 0;
}

void
InOrderCore::saveCheckpoint(SimSnapshot &out) const
{
    out = SimSnapshot{};
    ArchState &arch = out.arch;
    for (int i = 0; i < kNumArchRegs; ++i)
        arch.regs[i] = regs_[i];
    for (int i = 0; i < kNumMsrRegs; ++i)
        arch.msrs[i] = msrs_[i];
    arch.pc = pc_;
    arch.halted = halted_;
    arch.instCount = committed_;
    arch.faultCount = counters_.faults;
    arch.lastFetchLine = lastFetchLine_;
    arch.mem = mem_;
    if (dift_)
        arch.captureTaint(*dift_);

    out.hasMem = true;
    out.mem = hier_.save();
    out.memParams = cfg_.memory;
    // No predictor: this core never speculates.
}

void
InOrderCore::restoreCheckpoint(const SimSnapshot &snap)
{
    NDA_ASSERT(cycle_ == 0,
               "checkpoints restore into freshly constructed cores");
    const ArchState &arch = snap.arch;
    for (int i = 0; i < kNumArchRegs; ++i)
        regs_[i] = arch.regs[i];
    for (int i = 0; i < kNumMsrRegs; ++i)
        msrs_[i] = arch.msrs[i];
    pc_ = arch.pc;
    halted_ = arch.halted;
    committed_ = arch.instCount;
    counters_.faults = arch.faultCount;
    lastFetchLine_ = arch.lastFetchLine;
    mem_ = arch.mem;
    if (dift_)
        arch.applyTaint(*dift_);
    if (snap.hasMem)
        hier_.restore(snap.mem);
}

AccessResult
InOrderCore::dataTiming(Addr addr, MshrTargetKind kind)
{
    // Blocking semantics under either policy: the stall covers the
    // fill latency, so at most this one data miss (plus the step's own
    // fetch miss) is ever in flight and rejection cannot happen. seq
    // carries the commit index; nothing here squashes.
    const MemRequestResult req = hier_.dataRequest(
        addr, cycle_, static_cast<InstSeqNum>(committed_), kind);
    NDA_ASSERT(!req.rejected(),
               "blocking core overflowed the D-side MSHR file");
    return AccessResult{req.latency, req.level};
}

Cycle
InOrderCore::step()
{
    if (!prog_.validPc(pc_)) {
        halted_ = true;
        return 0;
    }
    const MicroOp &uop = prog_.at(pc_);
    const OpTraits &t = uop.traits();
    const RegVal a = t.readsRs1 ? regs_[uop.rs1] : 0;
    const RegVal b = t.readsRs2 ? regs_[uop.rs2] : 0;

    // --- fetch cost -------------------------------------------------------
    Cycle cost = 0; // the commit cycle itself is charged by tick()
    stallClass_ = CycleClass::kFrontendStall;
    // Like gem5's TimingSimpleCPU, every instruction pays a timed
    // i-cache access.
    const Addr fetch_addr = pcToFetchAddr(pc_);
    const MemRequestResult res = hier_.instRequest(fetch_addr, cycle_);
    NDA_ASSERT(!res.rejected(),
               "blocking core overflowed the I-side MSHR file");
    cost += res.latency - 1;
    lastFetchLine_ = fetch_addr / kLineSize;

    ++committed_;
    ++counters_.committedInsts;
    ++counters_.ilpCycles;
    ++counters_.ilpAccum;

    auto raise_fault = [&]() {
        ++counters_.squashes;
        ++counters_.faults;
        if (prog_.faultHandler == ~Addr{0}) {
            halted_ = true;
        } else {
            pc_ = prog_.faultHandler;
        }
    };

    switch (uop.op) {
      case Opcode::kHalt:
        halted_ = true;
        return cost;
      case Opcode::kNop:
      case Opcode::kFence:
      case Opcode::kSpecOff:
      case Opcode::kSpecOn:
        break;
      case Opcode::kLoad: {
        const Addr addr = a + static_cast<Addr>(uop.imm);
        if (!mem_.accessAllowed(addr, uop.size, CpuMode::kUser)) {
            raise_fault();
            return cost;
        }
        const AccessResult res = dataTiming(addr, MshrTargetKind::kLoad);
        regs_[uop.rd] = mem_.read(addr, uop.size);
        if (dift_)
            dift_->archLoad(uop.rd, uop.rs1, addr, uop.size, pc_);
        stallClass_ = CycleClass::kMemoryStall;
        cost += res.latency;
        ++counters_.loads;
        if (res.offChip()) {
            counters_.mlpCycles += res.latency;
            counters_.mlpAccum += res.latency;
        }
        break;
      }
      case Opcode::kStore: {
        const Addr addr = a + static_cast<Addr>(uop.imm);
        if (!mem_.accessAllowed(addr, uop.size, CpuMode::kUser)) {
            raise_fault();
            return cost;
        }
        const AccessResult res = dataTiming(addr, MshrTargetKind::kStore);
        mem_.write(addr, b, uop.size);
        if (dift_)
            dift_->archStore(addr, uop.size, uop.rs2);
        stallClass_ = CycleClass::kMemoryStall;
        cost += res.latency;
        ++counters_.stores;
        break;
      }
      case Opcode::kClflush:
        hier_.flushLine(a + static_cast<Addr>(uop.imm));
        break;
      case Opcode::kPrefetch:
        // Eager even under the non-blocking policy: the line installs
        // with no MSHR entry (a known bypass; honouring a rejection
        // needs retry in this blocking core).
        hier_.dataAccess(a + static_cast<Addr>(uop.imm));
        break;
      case Opcode::kRdMsr: {
        // Out-of-range indices fault like privileged ones (the
        // short-circuit keeps the shift defined and msrs_[] in
        // bounds), matching the interpreter oracle.
        const unsigned idx = static_cast<unsigned>(uop.imm);
        if (idx >= static_cast<unsigned>(kNumMsrRegs) ||
            (prog_.privilegedMsrMask & (1u << idx))) {
            raise_fault();
            return cost;
        }
        regs_[uop.rd] = msrs_[idx];
        if (dift_)
            dift_->archRdMsr(uop.rd, idx, pc_);
        break;
      }
      case Opcode::kWrMsr: {
        const unsigned idx = static_cast<unsigned>(uop.imm);
        if (idx >= static_cast<unsigned>(kNumMsrRegs) ||
            (prog_.privilegedMsrMask & (1u << idx))) {
            raise_fault();
            return cost;
        }
        msrs_[idx] = a;
        if (dift_)
            dift_->archWrMsr(idx, uop.rs1);
        break;
      }
      case Opcode::kRdTsc:
        regs_[uop.rd] = cycle_;
        if (dift_)
            dift_->setArchRegTaint(uop.rd, 0);
        break;
      default:
        if (t.isBranch) {
            if (t.hasDest) {
                regs_[uop.rd] = pc_ + 1;
                if (dift_)
                    dift_->setArchRegTaint(uop.rd, 0);
            }
            if (t.isCondBranch) {
                ++counters_.condBranches;
                pc_ = evalNextPc(uop, pc_, a, b);
            } else {
                if (t.isIndirect)
                    ++counters_.indirectBranches;
                pc_ = evalNextPc(uop, pc_, a, b);
            }
            return cost;
        }
        regs_[uop.rd] = evalAlu(uop.op, a, b, uop.imm);
        if (dift_)
            dift_->archAlu(uop);
        stallClass_ = CycleClass::kBackendStall;
        cost += opLatencyCycles(uop.op) - 1;
        break;
    }

    pc_ = pc_ + 1;
    return cost;
}

} // namespace nda
