/**
 * @file
 * Miss Status Holding Registers: the bookkeeping that makes a cache
 * non-blocking.
 *
 * One Mshr file fronts one cache level. A miss to a line with no
 * in-flight fill allocates a *primary* entry carrying the scheduled
 * fill cycle; later misses to the same line while the fill is pending
 * *coalesce* as secondary targets on that entry instead of issuing a
 * second request. When every entry is occupied the file exerts
 * backpressure (the requester retries next cycle). Fills drain in
 * deterministic (fillAt, allocation) order via takeReady(), so timing
 * and LRU state are bit-reproducible for any request interleaving.
 *
 * Wrong-path requests are *orphaned* on squash rather than cancelled:
 * the squash removes the squashed load's target (nobody wakes up) but
 * the fill still lands — that squash-surviving cache mutation is
 * exactly the transmission channel the NDA paper studies, so it must
 * not silently disappear with the ROB entries.
 */

#ifndef NDASIM_MEM_MSHR_HH
#define NDASIM_MEM_MSHR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/types.hh"

namespace nda {

class StatsRegistry;

/** What kind of requester waits (or not) on a fill. */
enum class MshrTargetKind : std::uint8_t {
    kLoad = 0,  ///< an in-flight LSQ load; wakes at fill, squashable
    kStore,     ///< a committed store drain; nothing waits on the fill
    kPrefetch,  ///< fire-and-forget software prefetch
    kFetch,     ///< the front end's instruction stream
};

/** One requester coalesced onto an in-flight miss. */
struct MshrTarget {
    InstSeqNum seq = kInvalidSeqNum;
    MshrTargetKind kind = MshrTargetKind::kLoad;
    unsigned tid = 0;  ///< requesting hardware thread (SMT squash scope)
};

/** One in-flight miss (a primary entry plus its target list). */
struct MshrEntry {
    Addr lineAddr = 0;          ///< line-granular address (addr/lineBytes)
    Cycle fillAt = 0;           ///< cycle the fill reaches this cache
    std::uint64_t allocId = 0;  ///< allocation order, tie-break for fills
    std::vector<MshrTarget> targets;
};

/**
 * The MSHR file of a single cache level. Entry count 0 disables the
 * file entirely (the hierarchy then serves requests eagerly).
 */
class Mshr
{
  public:
    Mshr(std::string name, unsigned entries, unsigned maxTargets);

    bool enabled() const { return entries_ > 0; }
    bool full() const { return pending_.size() >= entries_; }
    bool empty() const { return pending_.empty(); }
    std::size_t occupancy() const { return pending_.size(); }
    unsigned capacity() const { return entries_; }
    const std::string &name() const { return name_; }

    /** The pending entry tracking `line`, or nullptr. */
    MshrEntry *find(Addr line);
    const MshrEntry *find(Addr line) const;

    /**
     * Allocate a primary entry for `line` filling at `fillAt`.
     * Caller must have checked !full() and find(line) == nullptr.
     */
    MshrEntry &allocate(Addr line, Cycle fillAt, MshrTarget target);

    /**
     * Coalesce a secondary requester onto an existing entry.
     * @return false (and count a full-stall) if the target list is at
     *         capacity — the requester must retry.
     */
    bool addTarget(MshrEntry &entry, MshrTarget target);

    /**
     * Remove and return every entry whose fill is due at or before
     * `now`, sorted by (fillAt, allocId) so the caller applies fills
     * in the order the memory system would deliver them.
     */
    std::vector<MshrEntry> takeReady(Cycle now);

    /** All pending entries in deterministic fill order (for the
     *  drain-into-snapshot path; does not modify the file). */
    std::vector<MshrEntry> pendingSorted() const;

    /** Squash: drop thread `tid`'s load targets younger than
     *  `keep_seq`. Other threads' targets and the entries themselves
     *  stay behind — orphaned fills still land. */
    void squashLoadTargets(InstSeqNum keep_seq, unsigned tid = 0);

    /** Forget everything in flight (checkpoint restore). */
    void clear() { pending_.clear(); }

    const std::vector<MshrEntry> &entries() const { return pending_; }

    /** Record one cycle's occupancy into the MLP histogram. */
    void sampleOccupancy();

    void noteFullStall() { ++fullStalls_; }
    std::uint64_t fullStalls() const { return fullStalls_; }
    std::uint64_t secondaryMerges() const { return secondaryMerges_; }

    void resetStats();

    /** Bind mshr_occupancy / secondary_merges / mshr_full_stalls under
     *  `prefix` (registered even when disabled so the stats schema
     *  does not depend on configuration). */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

    // --- deliberate corruption hooks (checker self-test only) ----------
    /** Duplicate the first pending entry's line as a second primary. */
    bool testDuplicatePrimary();
    /** Attach a load target with a fabricated seq to an entry. */
    bool testAddGhostTarget(InstSeqNum seq);
    /** Stuff fake entries (filling at `fillAt`, within the legal
     *  latency bound) until occupancy exceeds capacity. */
    bool testOverflow(Cycle fillAt);
    /** Push the first entry's fill past any reachable cycle — a fill
     *  the memory system lost; its waiters would sleep forever. */
    bool testStuckFill();

  private:
    std::string name_;
    unsigned entries_;
    unsigned maxTargets_;
    std::vector<MshrEntry> pending_;  ///< allocation order
    std::uint64_t nextAllocId_ = 0;
    std::uint64_t secondaryMerges_ = 0;
    std::uint64_t fullStalls_ = 0;
    Histogram occupancyHist_{64};
};

} // namespace nda

#endif // NDASIM_MEM_MSHR_HH
