/**
 * @file
 * In-order, non-pipelined timing core in the spirit of gem5's
 * TimingSimpleCPU (paper Table 3's in-order baseline). No
 * speculation of any kind, hence trivially immune to speculative
 * execution attacks — the paper's secure-performance lower bound.
 */

#ifndef NDASIM_CORE_INORDER_CORE_HH
#define NDASIM_CORE_INORDER_CORE_HH

#include "core/core_base.hh"
#include "core/core_config.hh"
#include "isa/program.hh"

namespace nda {

/** Non-pipelined in-order timing model. */
class InOrderCore : public CoreBase
{
  public:
    /** The core copies `prog`'s code; the data image goes straight
     *  into its memory, so `prog` need not outlive the core. */
    InOrderCore(const Program &prog, const SimConfig &cfg);

    /**
     * Advance one cycle; when the current instruction's latency has
     * elapsed, the next instruction executes.
     */
    void tick() override;
    void run(std::uint64_t max_insts, Cycle max_cycles) override;

    bool halted() const override { return halted_; }
    Cycle cycle() const override { return cycle_; }
    std::uint64_t committedInsts() const override { return committed_; }

    RegVal archReg(RegId r) const override { return regs_[r]; }
    RegVal msr(unsigned idx) const override { return msrs_[idx]; }

    MemoryMap &mem() override { return mem_; }
    const MemoryMap &mem() const override { return mem_; }
    MemHierarchy &hierarchy() override { return hier_; }

    PerfCounters &counters() override { return counters_; }
    const PerfCounters &counters() const override { return counters_; }
    void resetCounters() override { counters_.reset(); }

    /** DIFT oracle: architectural taint only — nothing speculates
     *  here, so no leak event can ever be raised. */
    void attachDift(TaintEngine *engine) override { dift_ = engine; }

    /** CPI stack: width 1, so each cycle is one slot — a commit, or a
     *  stall charged to the instruction paying its latency. */
    void attachCpiStack(CpiStackProfiler *p) override
    {
        cpiStack_ = p;
    }

    TaintWord archRegTaint(RegId r) const override;

    void saveCheckpoint(SimSnapshot &out) const override;
    void restoreCheckpoint(const SimSnapshot &snap) override;

  private:
    /** Execute one instruction; returns its total cycle cost. */
    Cycle step();

    /** Data-side timing for one access through the hierarchy's
     *  request path (either policy gives identical latencies — the
     *  blocking core never overlaps misses). */
    AccessResult dataTiming(Addr addr, MshrTargetKind kind);

    const ProgramCode prog_;
    SimConfig cfg_;
    MemoryMap mem_;
    MemHierarchy hier_;

    RegVal regs_[kNumArchRegs] = {};
    RegVal msrs_[kNumMsrRegs] = {};
    Addr pc_ = 0;
    bool halted_ = false;
    Cycle cycle_ = 0;
    Cycle busyUntil_ = 0;
    CycleClass stallClass_ = CycleClass::kCommit;
    std::uint64_t committed_ = 0;
    /** Last fetched i-cache line. Not a timing input here; carried in
     *  the snapshot (ArchState::lastFetchLine), whose interpreter
     *  and OoO consumers do use it. */
    Addr lastFetchLine_ = ~Addr{0};
    TaintEngine *dift_ = nullptr;
    CpiStackProfiler *cpiStack_ = nullptr; ///< usually absent
    Addr stallPc_ = 0; ///< pc whose latency busyUntil_ is paying

    PerfCounters counters_;
};

} // namespace nda

#endif // NDASIM_CORE_INORDER_CORE_HH
