/**
 * @file
 * SMARTS-style sampled-measurement harness (paper §6.1): for each
 * (workload, profile) pair, run K independently-seeded samples, each
 * placed by a functional fast-forward, warmed by a short detailed
 * window, then measured, and report the mean and 95% confidence
 * interval of CPI plus the Fig 9 statistics.
 *
 * Every measured window is an independent simulation — it owns its
 * core, memory, and RNG, seeded from (baseSeed + sample index) — so
 * the harness runs windows concurrently on a thread pool when
 * SampleParams::jobs > 1. Results are written into slots indexed by
 * task id and reduced in index order afterwards, which makes the
 * parallel output bit-identical to the serial (jobs = 1) path.
 *
 * Fast-forwarding is where a profile sweep burns almost all of its
 * functional work, and the functional prefix of a sample does not
 * depend on the profile being measured. The grid therefore
 * fast-forwards each (workload, sample) ONCE, snapshots the machine
 * (core/snapshot.hh), and restores that snapshot into every profile's
 * core — turning W×S×P functional prefixes into W×S. Profiles whose
 * cache/predictor geometry differs from the snapshot's fall back to
 * runWindow's own per-window fast-forward, the same path a direct
 * runWindow call without a checkpoint takes; both build checkpoints
 * with the same deterministic procedure, so a shared checkpoint and
 * a per-window one give bit-identical windows by construction.
 *
 * Two orthogonal extensions cut the fast-forward bill further.
 * SampleParams::chainSamples places the S samples at offsets s x
 * stride into ONE long run and builds checkpoint s+1 by extending
 * checkpoint s — W chains instead of W x S independent prefixes. And
 * a CheckpointStore (ckpt/checkpoint_store.hh) passed to runGrid
 * persists every built checkpoint on disk keyed by its deterministic
 * recipe, so later grids — other requests of a grid server, the next
 * CI run — skip the fast-forward phase entirely once the corpus is
 * warm. Both preserve bit-identity of the measured results.
 */

#ifndef NDASIM_HARNESS_RUNNER_HH
#define NDASIM_HARNESS_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/core_config.hh"
#include "core/perf_counters.hh"
#include "harness/profiles.hh"
#include "obs/hotspot_profiler.hh"
#include "obs/scoped_timer.hh"
#include "workloads/workload.hh"

namespace nda {

class CheckpointStore;
class StatsRegistry;
struct SimSnapshot;

/** Per-sample measurement knobs. */
struct SampleParams {
    /**
     * Functional fast-forward (interpreter + functional warming)
     * before the detailed windows. 0 = no fast-forward: windows
     * start at the program entry, as the pre-snapshot harness did.
     */
    std::uint64_t fastforwardInsts = 0;
    /** Detailed (timing-model) warm-up after the fast-forward. */
    std::uint64_t warmupInsts = 20'000;
    std::uint64_t measureInsts = 100'000;
    unsigned samples = 3;       ///< independently-seeded runs
    std::uint64_t baseSeed = 1;
    /** Concurrent simulation windows; 1 = fully serial (no pool). */
    unsigned jobs = 1;
    /**
     * SMARTS-proper chained sampling: instead of S independently-
     * seeded programs each fast-forwarded `fastforwardInsts`, run ONE
     * program (seed = baseSeed) and place sample s at offset
     * fastforwardInsts x (s+1) — `fastforwardInsts` becomes a
     * *stride*. Checkpoint s+1 is then built by extending checkpoint
     * s (extendWarmCheckpoint), so a W-workload grid pays one
     * fast-forward chain per workload instead of one per (workload,
     * sample). Requires fastforwardInsts > 0.
     */
    bool chainSamples = false;
    /**
     * Attach a causal CPI-stack profiler (obs/cpi_stack.hh) to every
     * measured window and return the per-cause slot stack + top-N
     * hotspots in WindowStats. Off by default: attribution walks the
     * dependence chain on stall cycles, which costs simulation speed.
     */
    bool cpiStack = false;

    /** "" when these parameters can produce a measurement, else why
     *  not: zero samples, an empty measured window, or chained
     *  sampling without a stride. */
    std::string check() const;

    /** NDA_FATAL with check()'s error, if any. */
    void validate() const;

    bool operator==(const SampleParams &) const = default;
};

/** Measured statistics of one sample window. */
struct WindowStats {
    double cpi = 0.0;
    double mlp = 0.0;
    double ilp = 0.0;
    double dispatchToIssue = 0.0;
    double commitFrac = 0.0;
    double memStallFrac = 0.0;
    double backendStallFrac = 0.0;
    double frontendStallFrac = 0.0;
    double condMispredictRate = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;

    // --- CPI stack (populated only when SampleParams::cpiStack) ----------
    /** Commit slots per cycle the stack decomposes against (the
     *  core's commit width; 1 for the in-order model). */
    unsigned slotWidth = 0;
    /** Per-cause slot counts, indexed by StallCause; empty when the
     *  profiler was detached. Sums exactly to slotWidth x cycles. In
     *  an aggregated RunResult::mean this is the SUM over samples
     *  (like instructions/cycles), keeping the identity exact. */
    std::vector<std::uint64_t> slotStack;
    /** Top-N PCs by lost slots (kHotspotTopN per window; re-ranked
     *  after merging in an aggregated mean). */
    std::vector<HotspotEntry> hotspots;
};

/** Hotspots kept per window and per aggregated cell. Cross-sample
 *  merging folds the per-window top-N lists, so a PC outside every
 *  window's top-N is dropped — fine for "where did the slots go",
 *  not a complete census. */
inline constexpr std::size_t kHotspotTopN = 16;

/** How much work one window cost the harness (not the simulated
 *  machine) — fed into GridStats. */
struct WindowWork {
    std::uint64_t ffInsts = 0;    ///< functional insts this window ran
    std::uint64_t ffRuns = 0;     ///< fast-forwards this window ran
    std::uint64_t restores = 0;   ///< checkpoint restores
    std::uint64_t warmupInsts = 0;   ///< detailed warm-up insts
    std::uint64_t measuredInsts = 0; ///< detailed measured insts
    // Functional-warming work of this window's own fast-forward (zero
    // when a shared checkpoint was restored instead).
    std::uint64_t warmITouches = 0;  ///< i-cache warming accesses
    std::uint64_t warmDTouches = 0;  ///< d-cache warming accesses
    std::uint64_t warmBpTrains = 0;  ///< predictor warming trainings
};

/**
 * Aggregate harness-side work of one grid sweep, bindable into a
 * StatsRegistry under "harness". The interesting signal is ff_runs /
 * ff_insts: with checkpoint reuse a W-workload, S-sample, P-profile
 * grid performs W×S fast-forwards instead of W×S×P.
 */
struct GridStats {
    std::uint64_t ffInsts = 0;
    std::uint64_t ffRuns = 0;
    std::uint64_t checkpointRestores = 0;
    std::uint64_t detailedWarmupInsts = 0;
    std::uint64_t measuredInsts = 0;
    std::uint64_t windows = 0;
    // Functional-warming cost drivers of the fast-forward phase
    // (Interpreter::WarmingWork aggregated across all builds).
    std::uint64_t warmITouches = 0;
    std::uint64_t warmDTouches = 0;
    std::uint64_t warmBpTrains = 0;
    // Checkpoint-corpus traffic of the fast-forward phase (all zero
    // when no CheckpointStore was passed to runGrid).
    std::uint64_t ckptHits = 0;      ///< checkpoints loaded from the corpus
    std::uint64_t ckptMisses = 0;    ///< lookups that had to build
    std::uint64_t ckptBytes = 0;     ///< serialized bytes read + published
    /** Longest fast-forward chain (checkpoints per workload) this
     *  grid built or resumed; 0 unless chainSamples. */
    std::uint64_t ckptChainLen = 0;
    /** Host seconds summed over pool lanes: "fast_forward" (obtaining
     *  shared checkpoints) and "detailed" (running windows). */
    PhaseTimings timings;

    void accumulate(const WindowWork &w);

    /** Lane seconds spent obtaining shared checkpoints. */
    double ffSeconds() const;

    /** Fast-forward throughput in MIPS (0 before any fast-forward). */
    double ffMips() const;

    /** Bind all counters under `prefix` (canonically "harness"). */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;
};

/** Aggregated result over all samples of one (workload, profile). */
struct RunResult {
    WindowStats mean;
    double cpiCi95 = 0.0;       ///< 95% CI half-width on CPI
    std::vector<double> cpiSamples;
};

/**
 * Run one sample window of `prog`: fast-forward (or restore `ckpt` when given and structurally
 * compatible with `cfg`), detailed warm-up, measured window. `work`,
 * if set, receives this window's harness-side cost.
 */
WindowStats runWindow(const Program &prog, const SimConfig &cfg,
                      const SampleParams &p,
                      const SimSnapshot *ckpt = nullptr,
                      WindowWork *work = nullptr);

/** runWindow on `workload`'s program for `seed`, built for this window. */
WindowStats runWindow(const Workload &workload, const SimConfig &cfg,
                      std::uint64_t seed, const SampleParams &p,
                      const SimSnapshot *ckpt = nullptr,
                      WindowWork *work = nullptr);

/** Reduce one cell's per-sample windows (in index order). */
RunResult aggregateWindows(const std::vector<WindowStats> &windows);

/** Run all samples for one (workload, profile) pair. */
RunResult runSampled(const Workload &workload, const SimConfig &cfg,
                     const SampleParams &p);

/**
 * Sweep a full workload x config grid. Each (workload, sample) is one
 * group of tasks: its checkpoint (shared across profiles; none when
 * p.fastforwardInsts is 0), then one window per config. Each distinct
 * (workload, seed) program is built once, by the first task that
 * needs it. Programs and checkpoints are dropped once their last
 * window is done, so the grid holds only what the groups in flight
 * use. The groups run sample-major on a pool of up to `p.jobs` lanes
 * (never more lanes than windows), each checkpoint started lanes - 1
 * groups ahead of its windows. Cell results are returned in row-major
 * order: result[w * configs.size() + c].
 *
 * `progress`, if set, is invoked after each *measured* window
 * completes with (windows done so far, total windows); fast-forwards
 * are not windows. Calls are serialized but may come from worker
 * threads.
 *
 * `stats`, if set, accumulates the sweep's harness-side work.
 *
 * `corpus`, if set, backs the shared-checkpoint phase with the
 * persistent store (ckpt/checkpoint_store.hh): each needed checkpoint
 * is looked up by (workload, seed, ff count, geometry fingerprint)
 * first — a CRC-clean, structurally-compatible hit skips that
 * fast-forward entirely; misses build (in chained mode, by extending
 * the previous checkpoint of the chain) and publish the result for
 * every later run sharing the directory. Results are bit-identical
 * with or without a corpus, warm or cold: deserialization is exact
 * (`SimSnapshot::operator==`), so a loaded checkpoint is
 * indistinguishable from a rebuilt one. The corpus holds shared
 * checkpoints only: a window whose geometry needs its own
 * fast-forward never touches it.
 */
std::vector<RunResult>
runGrid(const std::vector<const Workload *> &workloads,
        const std::vector<SimConfig> &configs, const SampleParams &p,
        const std::function<void(std::size_t, std::size_t)> &progress =
            nullptr,
        GridStats *stats = nullptr, CheckpointStore *corpus = nullptr);

/** Convenience overload over owning workload lists. */
std::vector<RunResult>
runGrid(const std::vector<std::unique_ptr<Workload>> &workloads,
        const std::vector<SimConfig> &configs, const SampleParams &p,
        const std::function<void(std::size_t, std::size_t)> &progress =
            nullptr,
        GridStats *stats = nullptr, CheckpointStore *corpus = nullptr);

} // namespace nda

#endif // NDASIM_HARNESS_RUNNER_HH
