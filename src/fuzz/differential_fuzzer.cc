#include "fuzz/differential_fuzzer.hh"

#include <algorithm>
#include <memory>
#include <mutex>

#include "common/thread_pool.hh"
#include "common/xrandom.hh"
#include "core/core_factory.hh"
#include "core/ooo_core.hh"
#include "dift/taint_engine.hh"
#include "isa/interpreter.hh"
#include "obs/stats_registry.hh"

namespace nda {

namespace {

/** Cycles per run() slice — kept under the OoO core's 500k-cycle
 *  no-commit watchdog so a wedged candidate program is reported as a
 *  fuzz failure instead of aborting the whole campaign. */
constexpr Cycle kSliceCycles = 400'000;
/** Instruction cap per slice; avoids the in-order core's unchecked
 *  `committed + max_insts` sum wrapping on ~0. */
constexpr std::uint64_t kSliceInsts = 1'000'000'000;
/** Oracle (interpreter) instruction budget per candidate. */
constexpr std::uint64_t kOracleInsts = 10'000'000;

/** FNV-1a, the fingerprint accumulator. */
struct Fnv {
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    byte(std::uint8_t b)
    {
        h ^= b;
        h *= 0x100000001b3ULL;
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    bytes(const std::uint8_t *p, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            byte(p[i]);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(reinterpret_cast<const std::uint8_t *>(s.data()),
              s.size());
    }
};

/** Secrets for the taint comparison: the first 64 bytes of the first
 *  data segment (deterministic, and present in every generated
 *  program's random-data segment). */
SecretMap
fuzzSecrets(const Program &prog)
{
    SecretMap secrets;
    if (!prog.data.empty() && !prog.data.front().bytes.empty()) {
        const DataSegment &seg = prog.data.front();
        secrets.addMemRange(
            seg.base,
            static_cast<unsigned>(std::min<std::size_t>(
                64, seg.bytes.size())),
            "fuzz-secret");
    }
    return secrets;
}

/** Comparable architectural end state of one model. */
struct ModelEndState {
    RegVal regs[kNumArchRegs] = {};
    RegVal msrs[kNumMsrRegs] = {};
    std::uint64_t insts = 0;
    std::uint64_t faults = 0;
    std::vector<std::uint8_t> mem;      ///< all segments, concatenated
    TaintWord regTaint[kNumArchRegs] = {};
    std::vector<TaintWord> memTaint;    ///< per byte, same layout
};

void
collectMemory(const Program &prog, const MemoryMap &mem,
              const TaintEngine *taint, ModelEndState &out)
{
    std::size_t total = 0;
    for (const DataSegment &seg : prog.data)
        total += seg.bytes.size();
    out.mem.resize(total);
    std::size_t at = 0;
    for (const DataSegment &seg : prog.data) {
        mem.readBytes(seg.base, out.mem.data() + at, seg.bytes.size());
        at += seg.bytes.size();
    }
    if (taint) {
        out.memTaint.reserve(total);
        for (const DataSegment &seg : prog.data) {
            for (std::size_t i = 0; i < seg.bytes.size(); ++i) {
                out.memTaint.push_back(
                    taint->memTaint(seg.base + i, 1));
            }
        }
    }
}

/** Address of byte `index` of the concatenated segment image. */
Addr
memIndexToAddr(const Program &prog, std::size_t index)
{
    for (const DataSegment &seg : prog.data) {
        if (index < seg.bytes.size())
            return seg.base + index;
        index -= seg.bytes.size();
    }
    return 0;
}

void
hashState(Fnv &fnv, const ModelEndState &s)
{
    for (RegVal r : s.regs)
        fnv.u64(r);
    for (RegVal m : s.msrs)
        fnv.u64(m);
    fnv.u64(s.insts);
    fnv.u64(s.faults);
    fnv.bytes(s.mem.data(), s.mem.size());
    for (TaintWord t : s.regTaint)
        fnv.u64(t);
    for (TaintWord t : s.memTaint)
        fnv.u64(t);
}

/**
 * Run `core` to completion in watchdog-safe slices.
 * @return true on halt; false (with `why`) on hang or budget blowout.
 */
bool
runCoreSliced(CoreBase &core, Cycle max_cycles, std::string &why)
{
    while (!core.halted() && core.cycle() < max_cycles) {
        const std::uint64_t before = core.committedInsts();
        const Cycle slice =
            std::min<Cycle>(kSliceCycles, max_cycles - core.cycle());
        core.run(kSliceInsts, slice);
        if (!core.halted() && core.committedInsts() == before) {
            why = "no commit progress for " + std::to_string(slice) +
                  " cycles at cycle " + std::to_string(core.cycle());
            return false;
        }
    }
    if (!core.halted()) {
        why = "cycle budget (" + std::to_string(max_cycles) +
              ") exhausted";
        return false;
    }
    return true;
}

} // namespace

const char *
fuzzFailureKindName(FuzzFailureKind kind)
{
    switch (kind) {
      case FuzzFailureKind::kArchMismatch:
        return "arch-mismatch";
      case FuzzFailureKind::kFaultMismatch:
        return "fault-mismatch";
      case FuzzFailureKind::kCountMismatch:
        return "count-mismatch";
      case FuzzFailureKind::kTaintMismatch:
        return "taint-mismatch";
      case FuzzFailureKind::kInvariantViolation:
        return "invariant-violation";
      case FuzzFailureKind::kCoreHang:
        return "core-hang";
    }
    return "?";
}

RandomProgramParams
paramsForSeed(std::uint64_t seed)
{
    // Derive the shape from its own RNG stream (offset so it never
    // correlates with the program-content stream for the same seed).
    XRandom rng(seed * 0x9E3779B97F4A7C15ULL + 0x5DEECE66DULL);
    RandomProgramParams params;
    params.blocks = static_cast<unsigned>(rng.range(4, 20));
    params.opsPerBlock = static_cast<unsigned>(rng.range(4, 14));
    params.loopIterations = static_cast<unsigned>(rng.range(1, 6));
    params.functions = static_cast<unsigned>(rng.range(1, 4));
    params.useMemory = !rng.chance(1, 8);
    params.useIndirectCalls = !rng.chance(1, 4);
    params.useFences = rng.chance(1, 2);
    params.useClflush = rng.chance(1, 2);
    params.useRdtsc = rng.chance(1, 2);
    params.callChainDepth = static_cast<unsigned>(rng.below(5));
    return params;
}

SeedOutcome
fuzzProgram(const Program &prog, std::uint64_t seed,
            const FuzzParams &p)
{
    SeedOutcome out;
    const std::vector<Profile> profiles =
        p.profiles.empty() ? allProfiles() : p.profiles;
    const SecretMap secrets = fuzzSecrets(prog);

    // --- the architectural oracle ----------------------------------------
    Interpreter ref(prog);
    TaintEngine refTaint(secrets);
    if (p.compareTaint)
        ref.attachDift(&refTaint);
    ref.run(kOracleInsts);
    if (!ref.halted()) {
        out.skipped = true;
        return out;
    }

    ModelEndState want;
    for (int r = 0; r < kNumArchRegs; ++r)
        want.regs[r] = ref.reg(static_cast<RegId>(r));
    for (int i = 0; i < kNumMsrRegs; ++i)
        want.msrs[i] = ref.msr(static_cast<unsigned>(i));
    want.insts = ref.instCount();
    want.faults = ref.faultCount();
    if (p.compareTaint) {
        for (int r = 0; r < kNumArchRegs; ++r)
            want.regTaint[r] =
                refTaint.archRegTaint(static_cast<RegId>(r));
    }
    collectMemory(prog, ref.mem(), p.compareTaint ? &refTaint : nullptr,
                  want);

    Fnv fnv;
    fnv.u64(seed);
    hashState(fnv, want);

    const auto fail = [&](Profile profile, FuzzFailureKind kind,
                          std::string detail) {
        out.failures.push_back(
            {seed, profile, kind, std::move(detail)});
    };

    // --- every core model under test --------------------------------------
    for (Profile profile : profiles) {
        SimConfig cfg = makeProfile(profile);
        cfg.memory.mshrEntries = p.mshrEntries;
        auto core = makeCore(prog, cfg);
        TaintEngine coreTaint(secrets);
        if (p.compareTaint)
            core->attachDift(&coreTaint);
        InvariantChecker checker;
        if (p.checkInvariants)
            core->attachChecker(&checker);

        std::string why;
        if (!runCoreSliced(*core, p.maxCycles, why)) {
            fail(profile, FuzzFailureKind::kCoreHang, why);
            fnv.u64(static_cast<std::uint64_t>(profile));
            fnv.str(why);
            continue;
        }

        ModelEndState got;
        for (int r = 0; r < kNumArchRegs; ++r)
            got.regs[r] = core->archReg(static_cast<RegId>(r));
        for (int i = 0; i < kNumMsrRegs; ++i)
            got.msrs[i] = core->msr(static_cast<unsigned>(i));
        got.insts = core->committedInsts();
        got.faults = core->counters().faults;
        if (p.compareTaint) {
            for (int r = 0; r < kNumArchRegs; ++r)
                got.regTaint[r] =
                    core->archRegTaint(static_cast<RegId>(r));
        }
        collectMemory(prog, core->mem(),
                      p.compareTaint ? &coreTaint : nullptr, got);

        fnv.u64(static_cast<std::uint64_t>(profile));
        hashState(fnv, got);

        for (int r = 0; r < kNumArchRegs; ++r) {
            if (got.regs[r] != want.regs[r]) {
                fail(profile, FuzzFailureKind::kArchMismatch,
                     "r" + std::to_string(r) + " = " +
                         std::to_string(got.regs[r]) + ", oracle " +
                         std::to_string(want.regs[r]));
                break;
            }
        }
        for (int i = 0; i < kNumMsrRegs; ++i) {
            if (got.msrs[i] != want.msrs[i]) {
                fail(profile, FuzzFailureKind::kArchMismatch,
                     "msr" + std::to_string(i) + " = " +
                         std::to_string(got.msrs[i]) + ", oracle " +
                         std::to_string(want.msrs[i]));
                break;
            }
        }
        if (got.mem != want.mem) {
            std::size_t i = 0;
            while (i < got.mem.size() && got.mem[i] == want.mem[i])
                ++i;
            fail(profile, FuzzFailureKind::kArchMismatch,
                 "memory byte @" +
                     std::to_string(memIndexToAddr(prog, i)) +
                     " differs");
        }
        if (got.faults != want.faults) {
            fail(profile, FuzzFailureKind::kFaultMismatch,
                 std::to_string(got.faults) + " delivered faults, "
                 "oracle " + std::to_string(want.faults));
        } else if (want.faults == 0 && got.insts != want.insts) {
            // Faulting instructions are counted differently by design
            // (the interpreter counts the faulting op, the OoO core
            // does not), so counts are only comparable fault-free.
            fail(profile, FuzzFailureKind::kCountMismatch,
                 std::to_string(got.insts) + " committed, oracle " +
                     std::to_string(want.insts));
        }
        if (p.compareTaint) {
            for (int r = 0; r < kNumArchRegs; ++r) {
                if (got.regTaint[r] != want.regTaint[r]) {
                    fail(profile, FuzzFailureKind::kTaintMismatch,
                         "taint of r" + std::to_string(r) + " = " +
                             std::to_string(got.regTaint[r]) +
                             ", oracle " +
                             std::to_string(want.regTaint[r]));
                    break;
                }
            }
            if (got.memTaint != want.memTaint) {
                std::size_t i = 0;
                while (i < got.memTaint.size() &&
                       got.memTaint[i] == want.memTaint[i]) {
                    ++i;
                }
                fail(profile, FuzzFailureKind::kTaintMismatch,
                     "memory taint @" +
                         std::to_string(memIndexToAddr(prog, i)) +
                         " differs");
            }
        }
        if (p.checkInvariants && !checker.clean()) {
            fail(profile, FuzzFailureKind::kInvariantViolation,
                 std::to_string(checker.totalViolations()) +
                     " violations, first: " +
                     InvariantChecker::describe(
                         checker.violations().front()));
        }
    }

    for (const FuzzFailure &f : out.failures) {
        fnv.u64(static_cast<std::uint64_t>(f.profile));
        fnv.u64(static_cast<std::uint64_t>(f.kind));
        fnv.str(f.detail);
    }
    out.hash = fnv.h;
    return out;
}

FuzzResult
runFuzz(const FuzzParams &p,
        const std::function<void(std::size_t, std::size_t)> &progress)
{
    const std::size_t n = static_cast<std::size_t>(p.runs);
    std::vector<SeedOutcome> slots(n);

    std::mutex progress_mutex;
    std::size_t done = 0;
    ThreadPool pool(ThreadPool::lanesFor(p.jobs, n));
    pool.parallelFor(n, [&](std::size_t i) {
        const std::uint64_t seed = p.seed0 + i;
        const Program prog =
            generateRandomProgram(seed, paramsForSeed(seed));
        slots[i] = fuzzProgram(prog, seed, p);
        if (progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress(++done, n);
        }
    });

    // Reduce in seed order: bit-identical for any jobs count.
    FuzzResult result;
    Fnv fnv;
    for (std::size_t i = 0; i < n; ++i) {
        const SeedOutcome &o = slots[i];
        if (o.skipped) {
            ++result.skipped;
            continue;
        }
        ++result.executed;
        fnv.u64(o.hash);
        result.failures.insert(result.failures.end(),
                               o.failures.begin(), o.failures.end());
    }
    result.fingerprint = fnv.h;
    return result;
}

InvariantKind
expectedInvariant(FuzzCorruption kind)
{
    switch (kind) {
      case FuzzCorruption::kFreeListLeak:
      case FuzzCorruption::kDoubleFree:
        return InvariantKind::kFreeList;
      case FuzzCorruption::kEarlyWakeup:
        return InvariantKind::kWakeupOrder;
      case FuzzCorruption::kRenameCorrupt:
        return InvariantKind::kRenameMap;
      case FuzzCorruption::kRobReorder:
        return InvariantKind::kRobOrder;
      case FuzzCorruption::kMshrDupPrimary:
        return InvariantKind::kMshrPrimary;
      case FuzzCorruption::kMshrGhostTarget:
        return InvariantKind::kMshrTargets;
      case FuzzCorruption::kMshrOverflow:
        return InvariantKind::kMshrOccupancy;
      case FuzzCorruption::kMshrStuckFill:
        return InvariantKind::kMshrFill;
      case FuzzCorruption::kCrossThreadRenameBleed:
        return InvariantKind::kSmtPartition;
      default:
        return InvariantKind::kNumInvariantKinds;
    }
}

InjectionOutcome
runWithInjection(const Program &prog, Profile profile,
                 FuzzCorruption kind, Cycle inject_cycle,
                 Cycle max_cycles)
{
    InjectionOutcome out;
    SimConfig cfg = makeProfile(profile);
    if (cfg.inOrder)
        return out; // nothing to corrupt in the in-order model

    // The MSHR corruptions need pending entries to mangle; profiles
    // default to the legacy eager model, where the hooks never apply.
    switch (kind) {
      case FuzzCorruption::kMshrDupPrimary:
      case FuzzCorruption::kMshrGhostTarget:
      case FuzzCorruption::kMshrOverflow:
      case FuzzCorruption::kMshrStuckFill:
        cfg.memory.mshrEntries = 4;
        break;
      case FuzzCorruption::kCrossThreadRenameBleed:
        // The bleed aliases two hardware threads' register
        // partitions, so the core must actually have two.
        cfg.core.smtThreads = 2;
        break;
      default:
        break;
    }

    auto core = std::make_unique<OooCore>(prog, cfg);
    InvariantChecker checker;
    core->attachChecker(&checker);

    // Phase 1: run cleanly up to the injection point.
    while (!core->halted() && core->cycle() < inject_cycle) {
        const std::uint64_t before = core->committedInsts();
        const Cycle slice = std::min<Cycle>(
            kSliceCycles, inject_cycle - core->cycle());
        core->run(kSliceInsts, slice);
        if (!core->halted() && core->committedInsts() == before)
            return out; // wedged before the injection point
    }

    // Short programs may halt before the requested injection point;
    // restart and inject from cycle 0 rather than reporting nothing
    // applicable.
    if (core->halted() && inject_cycle > 0) {
        core = std::make_unique<OooCore>(prog, cfg);
        core->attachChecker(&checker);
    }

    // Phase 2: apply the corruption, retrying on cycles where the
    // required state (e.g. an unsafe in-flight producer) is absent.
    while (!core->halted() && core->cycle() < max_cycles) {
        if (core->corruptForTest(kind)) {
            out.applied = true;
            break;
        }
        core->tick();
    }
    if (!out.applied)
        return out;

    // Phase 3: per-cycle checking means the very next tick must see
    // it. Tick only a handful of cycles — the corrupted pipeline is
    // not expected to stay runnable.
    for (int i = 0; i < 4 && !core->halted(); ++i)
        core->tick();

    out.violations = checker.totalViolations();
    if (!checker.violations().empty()) {
        out.firstViolation =
            InvariantChecker::describe(checker.violations().front());
        for (const InvariantViolation &v : checker.violations()) {
            if (std::find(out.kinds.begin(), out.kinds.end(), v.kind) ==
                out.kinds.end()) {
                out.kinds.push_back(v.kind);
            }
        }
    }
    return out;
}

void
FuzzResult::registerStats(StatsRegistry &reg,
                          const std::string &prefix) const
{
    const StatsRegistry::Group g = reg.group(prefix);
    g.counter("executed", &executed, "seeds judged");
    g.counter("skipped", &skipped,
              "seeds whose oracle run did not halt cleanly");
    g.counter("fingerprint", &fingerprint,
              "order-stable campaign outcome hash");
    g.formula("failures",
              [this] { return static_cast<double>(failures.size()); },
              "recorded (seed, profile) failures");
}

} // namespace nda
