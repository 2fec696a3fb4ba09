/**
 * @file
 * Two-level cache hierarchy + DRAM timing model (paper Table 3):
 * split 32 KiB L1I/L1D (4-cycle round trip), unified 2 MiB L2
 * (40-cycle round trip), 50 ns DRAM (100 cycles at 2 GHz).
 *
 * One request API (`dataRequest`/`instRequest`, plus `advance` once
 * per core cycle) with two service policies chosen by
 * `HierarchyParams::mshrEntries`; the cores never branch on it:
 *  - mshrEntries == 0 (default): the eager policy — a miss charges
 *    its latency and fills tags immediately, occupies no MSHR and
 *    never rejects (status kFilled). This is the bit-exact behaviour
 *    every pre-MSHR golden, checkpoint, and fuzzer fingerprint was
 *    recorded against.
 *  - mshrEntries >= 1: the non-blocking policy. Misses allocate MSHR
 *    entries (mem/mshr.hh) and the tags fill only when `advance()`
 *    reaches the scheduled fill cycle; a full file rejects the
 *    request (the core retries). mshrEntries == 1 per L1 file is the
 *    canonical *blocking* configuration: one miss in flight.
 *
 * `dataAccess`/`instAccess` are the eager policy without a requester:
 * functional cache warming and the reference the request API is
 * tested against.
 */

#ifndef NDASIM_MEM_HIERARCHY_HH
#define NDASIM_MEM_HIERARCHY_HH

#include <cstdint>

#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/mshr.hh"

namespace nda {

/** Which level serviced an access. */
enum class HitLevel : std::uint8_t { kL1, kL2, kMemory };

/** Timing outcome of one access. */
struct AccessResult {
    unsigned latency = 0;
    HitLevel level = HitLevel::kL1;

    bool offChip() const { return level == HitLevel::kMemory; }
};

/** Outcome class of one memory request. */
enum class MemReqStatus : std::uint8_t {
    kHit = 0,   ///< serviced by L1; no MSHR involvement
    kMiss,      ///< primary miss: an MSHR entry was allocated
    kMerged,    ///< secondary miss: coalesced onto an in-flight fill
    kRejected,  ///< MSHR file (or target list) full; retry next cycle
    kFilled,    ///< eager-policy miss: filled at once, no MSHR entry
};

/** Timing outcome of one memory request. */
struct MemRequestResult {
    MemReqStatus status = MemReqStatus::kHit;
    unsigned latency = 0;       ///< cycles until the data is usable
    HitLevel level = HitLevel::kL1; ///< where the fill comes from

    bool rejected() const { return status == MemReqStatus::kRejected; }
    bool offChip() const { return level == HitLevel::kMemory; }
    /** The request holds a (shared) MSHR entry until its fill. */
    bool
    occupiesMshr() const
    {
        return status == MemReqStatus::kMiss ||
               status == MemReqStatus::kMerged;
    }
};

/** Parameters of the full hierarchy. */
struct HierarchyParams {
    CacheParams l1i{"l1i", 32 * 1024, 8, kLineSize, 4};
    CacheParams l1d{"l1d", 32 * 1024, 8, kLineSize, 4};
    CacheParams l2{"l2", 2 * 1024 * 1024, 16, kLineSize, 40};
    /** DRAM response latency in cycles (50 ns at 2 GHz). */
    unsigned dramLatency = 100;
    /**
     * MSHR entries per L1 file; the L2 file gets the sum of both L1
     * files so it can never reject a request an L1 accepted. 0 selects
     * the eager policy (bit-exact with pre-MSHR builds); 1 models a
     * blocking cache; >= 2 enables real MLP. A timing knob only:
     * excluded from snapshot geometry compatibility and from the
     * checkpoint serializer format.
     */
    unsigned mshrEntries = 0;
};

/**
 * The memory-side timing model. Tags only — data always comes from the
 * functional MemoryMap owned by the core.
 */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const HierarchyParams &params = {});

    /** Warming state of all three tag arrays (core/snapshot.hh). */
    struct Snapshot {
        Cache::Snapshot l1i;
        Cache::Snapshot l1d;
        Cache::Snapshot l2;

        bool operator==(const Snapshot &) const = default;
    };

    /**
     * Capture the tag arrays. In non-blocking mode any in-flight
     * fills are drained *into the captured image* in deterministic
     * (fillAt, allocation) order — the snapshot is the state the
     * machine converges to, so save -> restore -> save round-trips
     * bit-exact even mid-miss, and a legacy (mshr-less) consumer of
     * the snapshot sees no MSHR state at all.
     */
    Snapshot save() const;

    /** Restore all levels; geometry must match (asserted per level).
     *  In-flight MSHR state is discarded (restores target freshly
     *  constructed cores; nothing can be waiting on a fill). */
    void restore(const Snapshot &snap);

    /** Eager data access (load or store, write-allocate): misses fill
     *  immediately whatever `mshrEntries` says. Functional warming
     *  and test reference; timing accesses use dataRequest. */
    AccessResult dataAccess(Addr addr);

    /**
     * Compute the latency a data access would see *without* changing
     * any cache state (InvisiSpec speculative shadow access).
     */
    AccessResult dataPeek(Addr addr) const;

    /** Fill the line containing addr into L1D and L2 (expose). */
    void dataFill(Addr addr);

    /** Eager instruction fetch access; mutates L1I/L2 state. */
    AccessResult instAccess(Addr addr);

    // --- request interface (every timing access of the cores) ----------
    /**
     * Data-side request, serviced by the configured policy. Eager
     * (mshrEntries == 0): exactly dataAccess, reported as kHit or
     * kFilled. Non-blocking: a miss is scheduled through the MSHR
     * files instead of landing eagerly; kRejected means the file was
     * full and *nothing* was mutated (retry next cycle). `now` is the
     * core's current cycle; `seq` and `tid` identify the requester
     * for squash-time target cancellation (squashes are
     * per-hardware-thread under SMT).
     */
    MemRequestResult dataRequest(Addr addr, Cycle now, InstSeqNum seq,
                                 MshrTargetKind kind, unsigned tid = 0);

    /** Instruction-side request; same policies as dataRequest. */
    MemRequestResult instRequest(Addr addr, Cycle now);

    /** Drain every fill due at or before `now` into the tag arrays
     *  (L2 first, then L1I, then L1D; (fillAt, alloc) order within a
     *  file) and sample MSHR occupancy. Call once per core cycle; a
     *  no-op under the eager policy. */
    void advance(Cycle now);

    /** Squash recovery: drop thread `tid`'s load targets younger than
     *  `keep_seq` from every file. The fills themselves still land
     *  (orphaned wrong-path fills are the squash-surviving channel NDA
     *  studies), and other threads' targets are untouched. */
    void squashLoadTargets(InstSeqNum keep_seq, unsigned tid = 0);

    /** The non-blocking policy is in force (mshrEntries > 0). */
    bool mshrEnabled() const { return params_.mshrEntries > 0; }
    /** No fill in flight in any file. */
    bool
    mshrDrained() const
    {
        return mshrI_.empty() && mshrD_.empty() && mshrL2_.empty();
    }

    const Mshr &mshrData() const { return mshrD_; }
    const Mshr &mshrInst() const { return mshrI_; }
    const Mshr &mshrL2() const { return mshrL2_; }
    /** Checker self-test corruption hooks (tests only). */
    Mshr &mshrDataForTest() { return mshrD_; }

    /** clflush semantics: evict the line from L1D, L1I and L2. */
    void flushLine(Addr addr);

    /** Invalidate all caches. */
    void flushAll();

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const HierarchyParams &params() const { return params_; }

    void
    resetStats()
    {
        l1i_.resetStats();
        l1d_.resetStats();
        l2_.resetStats();
        mshrI_.resetStats();
        mshrD_.resetStats();
        mshrL2_.resetStats();
    }

    /** Bind each level's stats under `prefix`.l1i / .l1d / .l2
     *  (MSHR stats included unconditionally: the schema must not
     *  depend on configuration). */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** The eager policy on one L1 side (L1 -> L2 -> DRAM). */
    AccessResult eagerAccess(Cache &l1, Addr addr);
    /** Both policies on one L1 side and its MSHR file. */
    MemRequestResult request(Cache &l1, Mshr &file, Addr addr, Cycle now,
                             const MshrTarget &target);

    Addr lineOf(Addr addr) const { return addr / params_.l1d.lineBytes; }
    Addr
    lineToAddr(Addr line) const
    {
        return line * params_.l1d.lineBytes;
    }

    HierarchyParams params_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Mshr mshrI_;
    Mshr mshrD_;
    Mshr mshrL2_;
};

} // namespace nda

#endif // NDASIM_MEM_HIERARCHY_HH
