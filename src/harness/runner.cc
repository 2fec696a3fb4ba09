#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

#include "common/log.hh"
#include "common/stats_util.hh"
#include "common/thread_pool.hh"
#include "ckpt/checkpoint_store.hh"
#include "core/core_factory.hh"
#include "core/snapshot.hh"
#include "isa/interpreter.hh"
#include "obs/cpi_stack.hh"
#include "obs/stats_registry.hh"

namespace nda {

std::string
SampleParams::check() const
{
    if (samples == 0)
        return "'samples' is 0: at least one sample window is required "
               "to measure anything";
    if (measureInsts == 0)
        return "'measure' (measureInsts) is 0: an empty measured window "
               "would report CPI over zero instructions";
    if (chainSamples && fastforwardInsts == 0)
        return "'chain' needs a nonzero 'fastforward' stride: chained "
               "sampling places windows at multiples of the stride";
    return "";
}

void
SampleParams::validate() const
{
    if (const std::string error = check(); !error.empty())
        NDA_FATAL("SampleParams: %s", error.c_str());
}

void
GridStats::accumulate(const WindowWork &w)
{
    ffInsts += w.ffInsts;
    ffRuns += w.ffRuns;
    checkpointRestores += w.restores;
    detailedWarmupInsts += w.warmupInsts;
    measuredInsts += w.measuredInsts;
    warmITouches += w.warmITouches;
    warmDTouches += w.warmDTouches;
    warmBpTrains += w.warmBpTrains;
    ++windows;
}

double
GridStats::ffSeconds() const
{
    for (const auto &phase : timings.phases()) {
        if (phase.first == "fast_forward")
            return phase.second;
    }
    return 0.0;
}

double
GridStats::ffMips() const
{
    const double secs = ffSeconds();
    return secs > 0.0 ? static_cast<double>(ffInsts) / secs / 1e6 : 0.0;
}

void
GridStats::registerStats(StatsRegistry &reg,
                         const std::string &prefix) const
{
    const StatsRegistry::Group g = reg.group(prefix);
    g.counter("ff_insts", &ffInsts,
              "functional fast-forward instructions executed");
    g.counter("ff_runs", &ffRuns,
              "fast-forwards executed (one per shared (workload, "
              "sample) checkpoint, plus one per window whose geometry "
              "cannot restore it)");
    g.counter("checkpoint_restores", &checkpointRestores,
              "warming checkpoints restored into cores");
    g.counter("detailed_warmup_insts", &detailedWarmupInsts,
              "detailed-model warm-up instructions executed");
    g.counter("measured_insts", &measuredInsts,
              "detailed-model measured instructions executed");
    g.counter("windows", &windows, "measured sample windows run");
    g.counter("warm_i_touches", &warmITouches,
              "functional-warming i-cache accesses (fetch-line "
              "crossings) during fast-forward");
    g.counter("warm_d_touches", &warmDTouches,
              "functional-warming d-cache accesses (loads, stores, "
              "prefetches) during fast-forward");
    g.counter("warm_bp_trains", &warmBpTrains,
              "functional-warming branch trainings during "
              "fast-forward");
    g.counter("ckpt_hits", &ckptHits,
              "checkpoints loaded from the persistent corpus instead "
              "of fast-forwarded");
    g.counter("ckpt_misses", &ckptMisses,
              "corpus lookups that had to build (and publish) the "
              "checkpoint");
    g.counter("ckpt_bytes", &ckptBytes,
              "serialized checkpoint bytes read from plus published "
              "to the corpus");
    g.counter("ckpt_chain_len", &ckptChainLen,
              "longest fast-forward chain (checkpoints per workload) "
              "built or resumed; 0 unless chained sampling");
    g.formula("ff_mips", [this] { return ffMips(); },
              "fast-forward throughput, functional MIPS (ff_insts / "
              "lane seconds spent obtaining shared checkpoints)");
}

WindowStats
runWindow(const Program &prog, const SimConfig &cfg, const SampleParams &p,
          const SimSnapshot *ckpt, WindowWork *work)
{
    auto core = makeCore(prog, cfg);
    WindowWork local;

    // CPI-stack attribution, measured window only (reset below). The
    // in-order model retires at most one instruction per cycle.
    std::unique_ptr<CpiStackProfiler> cpi;
    if (p.cpiStack) {
        cpi = std::make_unique<CpiStackProfiler>(
            cfg.inOrder ? 1u : cfg.core.commitWidth);
        core->attachCpiStack(cpi.get());
    }

    if (p.fastforwardInsts > 0) {
        if (ckpt != nullptr && ckpt->structurallyCompatible(cfg)) {
            core->restoreCheckpoint(*ckpt);
        } else {
            // No shared checkpoint (a direct call) or its warming
            // state does not fit this config's geometry: fast-forward
            // for this window alone. Same deterministic procedure
            // either way, so results never depend on which path ran.
            WarmingWork warm;
            const SimSnapshot own = buildWarmCheckpoint(
                prog, cfg.memory, cfg.core.predictor,
                p.fastforwardInsts, nullptr, &warm);
            core->restoreCheckpoint(own);
            local.ffInsts += p.fastforwardInsts;
            ++local.ffRuns;
            local.warmITouches += warm.iTouches;
            local.warmDTouches += warm.dTouches;
            local.warmBpTrains += warm.bpTrains;
        }
        ++local.restores;
        NDA_ASSERT(!core->halted(),
                   "workload '%s' halted during fast-forward — too "
                   "short", prog.name.c_str());
    }

    // Warm pipeline state (and, without a fast-forward, caches and
    // predictors too) under the detailed model.
    core->run(p.warmupInsts, ~Cycle{0});
    NDA_ASSERT(!core->halted(),
               "workload '%s' halted during warm-up — too short",
               prog.name.c_str());
    local.warmupInsts += p.warmupInsts;

    // Measured window.
    core->resetCounters();
    if (cpi)
        cpi->reset();
    core->run(p.measureInsts, ~Cycle{0});
    NDA_ASSERT(!core->halted(),
               "workload '%s' halted during measurement",
               prog.name.c_str());

    const PerfCounters &c = core->counters();
    local.measuredInsts += c.committedInsts;
    if (work)
        *work = local;

    WindowStats w;
    w.cpi = c.cpi();
    w.mlp = c.mlp();
    w.ilp = c.ilp();
    w.dispatchToIssue = c.dispatchToIssue.mean();
    w.commitFrac = c.cycleFraction(CycleClass::kCommit);
    w.memStallFrac = c.cycleFraction(CycleClass::kMemoryStall);
    w.backendStallFrac = c.cycleFraction(CycleClass::kBackendStall);
    w.frontendStallFrac = c.cycleFraction(CycleClass::kFrontendStall);
    w.condMispredictRate = c.condMispredictRate();
    w.instructions = c.committedInsts;
    w.cycles = c.cycles;
    if (cpi) {
        w.slotWidth = cpi->width();
        w.slotStack.resize(kNumStallCauses);
        for (int i = 0; i < kNumStallCauses; ++i)
            w.slotStack[i] = cpi->slots(static_cast<StallCause>(i));
        w.hotspots = cpi->hotspots().topN(kHotspotTopN);
    }
    return w;
}

WindowStats
runWindow(const Workload &workload, const SimConfig &cfg,
          std::uint64_t seed, const SampleParams &p,
          const SimSnapshot *ckpt, WindowWork *work)
{
    return runWindow(workload.build(seed), cfg, p, ckpt, work);
}

RunResult
aggregateWindows(const std::vector<WindowStats> &windows)
{
    RunResult result;
    WindowStats acc;
    for (const WindowStats &w : windows) {
        result.cpiSamples.push_back(w.cpi);
        acc.cpi += w.cpi;
        acc.mlp += w.mlp;
        acc.ilp += w.ilp;
        acc.dispatchToIssue += w.dispatchToIssue;
        acc.commitFrac += w.commitFrac;
        acc.memStallFrac += w.memStallFrac;
        acc.backendStallFrac += w.backendStallFrac;
        acc.frontendStallFrac += w.frontendStallFrac;
        acc.condMispredictRate += w.condMispredictRate;
        acc.instructions += w.instructions;
        acc.cycles += w.cycles;
        // Slot stacks SUM like instructions/cycles, so the identity
        // sum(stack) == width x cycles survives aggregation exactly.
        if (!w.slotStack.empty()) {
            acc.slotWidth = w.slotWidth;
            if (acc.slotStack.empty())
                acc.slotStack.assign(kNumStallCauses, 0);
            for (int i = 0; i < kNumStallCauses; ++i)
                acc.slotStack[i] += w.slotStack[i];
        }
    }
    if (!acc.slotStack.empty()) {
        // Re-rank the union of the per-window top-N lists (windows in
        // index order, so the merge is schedule-independent).
        HotspotProfiler merged;
        for (const WindowStats &w : windows) {
            for (const HotspotEntry &e : w.hotspots)
                merged.mergeEntry(e);
        }
        acc.hotspots = merged.topN(kHotspotTopN);
    }
    const double n = static_cast<double>(windows.size());
    acc.cpi /= n;
    acc.mlp /= n;
    acc.ilp /= n;
    acc.dispatchToIssue /= n;
    acc.commitFrac /= n;
    acc.memStallFrac /= n;
    acc.backendStallFrac /= n;
    acc.frontendStallFrac /= n;
    acc.condMispredictRate /= n;
    result.mean = acc;
    result.cpiCi95 = confidenceHalfWidth95(result.cpiSamples);
    return result;
}

RunResult
runSampled(const Workload &workload, const SimConfig &cfg,
           const SampleParams &p)
{
    const std::vector<const Workload *> ws{&workload};
    const std::vector<SimConfig> cs{cfg};
    return runGrid(ws, cs, p).front();
}

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * A value built by the first task that asks for it (concurrent askers
 * wait) and dropped by the last of its `users`: a grid's programs and
 * checkpoints live only while windows still need them.
 */
template <typename T>
struct Shared {
    std::once_flag once;
    std::atomic<std::size_t> users{0};
    T value{};

    template <typename Make>
    const T &
    get(Make &&make)
    {
        std::call_once(once, [&] { value = make(); });
        return value;
    }

    void
    release()
    {
        if (--users == 0)
            value = T{};
    }
};

/**
 * Corpus probe used by the shared-checkpoint phase: a hit must be
 * CRC-clean (CheckpointStore::load enforces that) AND structurally
 * compatible with the grid's geometry — the key fingerprint should
 * guarantee compatibility, but a fingerprint collision or a tampered
 * entry must degrade to a rebuild, never into restoring tags of the
 * wrong shape. `bytes` accumulates corpus traffic either way.
 */
bool
corpusLoad(CheckpointStore *corpus, const CkptKey &key,
           const SimConfig &cfg, SimSnapshot &out, std::uint64_t *bytes)
{
    if (!corpus)
        return false;
    std::uint64_t entry_bytes = 0;
    if (!corpus->load(key, out, &entry_bytes))
        return false;
    if (!out.structurallyCompatible(cfg)) {
        NDA_WARN("ckpt: corpus entry '%s' is structurally "
                 "incompatible with the requested geometry — "
                 "rebuilding", key.fileName().c_str());
        return false;
    }
    *bytes += entry_bytes;
    return true;
}

} // namespace

std::vector<RunResult>
runGrid(const std::vector<const Workload *> &workloads,
        const std::vector<SimConfig> &configs, const SampleParams &p,
        const std::function<void(std::size_t, std::size_t)> &progress,
        GridStats *stats, CheckpointStore *corpus)
{
    p.validate();
    const std::size_t n_configs = configs.size();
    const std::size_t cells = workloads.size() * n_configs;
    const std::size_t total = cells * p.samples;
    std::vector<WindowStats> windows(total);
    std::vector<WindowWork> work(total);
    std::vector<double> window_secs(total, 0.0);

    // The effective fast-forward and program seed of one (workload,
    // sample): chained sampling measures offsets s x stride of ONE
    // run (seed = baseSeed); classic sampling measures offset
    // `fastforwardInsts` of S independently-seeded runs.
    const auto window_ff = [&p](std::size_t sample) {
        return p.chainSamples
                   ? p.fastforwardInsts * (sample + 1)
                   : p.fastforwardInsts;
    };
    const auto window_seed = [&p](std::size_t sample) {
        return p.chainSamples
                   ? p.baseSeed
                   : p.baseSeed + static_cast<std::uint64_t>(sample);
    };

    // One Program per distinct (workload, seed): S per workload, or
    // one under chained sampling. Built by the first task that needs
    // it, used by its checkpoints and every profile's window, and
    // released by the last of those windows.
    const std::size_t progs_per_w = p.chainSamples ? 1 : p.samples;
    const auto program_of = [&](std::size_t w, std::size_t sample) {
        return w * progs_per_w + (p.chainSamples ? 0 : sample);
    };
    std::vector<Shared<Program>> programs(workloads.size() * progs_per_w);
    for (auto &prog : programs)
        prog.users = n_configs * p.samples / progs_per_w;
    const auto program = [&](std::size_t w, std::size_t sample)
        -> const Program & {
        return programs[program_of(w, sample)].get([&] {
            return workloads[w]->build(window_seed(sample));
        });
    };

    // One warming checkpoint per (workload, sample), built with the
    // first config's geometry and shared across profiles. The
    // functional prefix of a sample does not depend on the profile,
    // so this turns W*S*P fast-forwards into W*S, and with chained
    // sampling into W fast-forward *chains*: checkpoint s extends
    // checkpoint s-1. A corpus, when given, replaces builds with
    // loads wherever it already holds the (workload, seed, ff,
    // geometry) entry. A checkpoint is released once its windows
    // (and, chained, the next link) are done with it. A grid without
    // a fast-forward has no checkpoints: its windows start at the
    // program entry.
    const bool share = p.fastforwardInsts > 0 && !configs.empty() &&
                       !workloads.empty();
    const std::size_t n_ckpts = workloads.size() * p.samples;
    std::vector<Shared<SimSnapshot>> checkpoints(share ? n_ckpts : 0);
    for (std::size_t i = 0; i < checkpoints.size(); ++i) {
        const bool extended =
            p.chainSamples && i % p.samples + 1 < p.samples;
        checkpoints[i].users = n_configs + (extended ? 1 : 0);
    }
    // Per-checkpoint accounting slots: reduced in index order below,
    // so the numbers are identical for any pool schedule.
    std::vector<WarmingWork> warm(n_ckpts);
    std::vector<std::uint64_t> ff_insts(n_ckpts, 0);
    std::vector<std::uint8_t> built(n_ckpts, 0);
    std::vector<std::uint64_t> corpus_bytes(n_ckpts, 0);
    std::vector<double> ff_secs(n_ckpts, 0.0);
    const std::uint64_t geom_fp =
        share ? geometryFingerprint(configs[0].memory,
                                    configs[0].core.predictor)
              : 0;
    const auto checkpoint = [&](auto &self, std::size_t i)
        -> const SimSnapshot & {
        return checkpoints[i].get([&] {
            const std::size_t w = i / p.samples;
            const std::size_t sample = i % p.samples;
            // A chain link follows its predecessor (loaded or built).
            const SimSnapshot *prev =
                p.chainSamples && sample > 0 ? &self(self, i - 1)
                                             : nullptr;
            const auto t0 = std::chrono::steady_clock::now();
            const std::uint64_t target = window_ff(sample);
            const CkptKey key{workloads[w]->name(), window_seed(sample),
                              target, geom_fp};
            SimSnapshot snap;
            if (!corpusLoad(corpus, key, configs[0], snap,
                            &corpus_bytes[i])) {
                const Program &prog = program(w, sample);
                snap = prev ? extendWarmCheckpoint(prog, *prev, target,
                                                   nullptr, &warm[i])
                            : buildWarmCheckpoint(
                                  prog, configs[0].memory,
                                  configs[0].core.predictor, target,
                                  nullptr, &warm[i]);
                ff_insts[i] = target - (prev ? prev->arch.instCount : 0);
                built[i] = 1;
                if (corpus)
                    corpus_bytes[i] += corpus->store(key, snap);
            }
            ff_secs[i] = secondsSince(t0);
            if (prev)
                checkpoints[i - 1].release();
            return snap;
        });
    };

    // One pool runs the (workload, sample) groups sample-major, so
    // the chains of all workloads advance together: each group is its
    // checkpoint task (if the grid has checkpoints), then its P
    // windows. The checkpoint task of a group starts `ahead` groups
    // early, so with L lanes L fast-forwards run side by side while
    // the grid still holds only the programs and checkpoints of the
    // groups in flight. With one lane: one checkpoint, then its
    // windows. A window whose checkpoint is still being built waits
    // for it.
    const std::size_t lanes = ThreadPool::lanesFor(p.jobs, total);
    const std::size_t ahead = share ? lanes - 1 : 0;
    const std::size_t n_groups = workloads.size() * p.samples;
    const std::size_t group = n_configs + (share ? 1 : 0);
    const auto ckpt_of = [&](std::size_t g) {
        return g % workloads.size() * p.samples + g / workloads.size();
    };
    std::mutex progress_mutex;
    std::size_t done = 0;
    ThreadPool pool(lanes);
    pool.parallelFor(ahead + n_groups * group, [&](std::size_t task) {
        if (task < ahead) {
            if (task < n_groups)
                checkpoint(checkpoint, ckpt_of(task));
            return;
        }
        task -= ahead;
        const std::size_t g = task / group;
        if (share && task % group == 0) {
            if (g + ahead < n_groups)
                checkpoint(checkpoint, ckpt_of(g + ahead));
            return;
        }
        const std::size_t w = g % workloads.size();
        const std::size_t sample = g / workloads.size();
        const std::size_t c = task % group - (share ? 1 : 0);
        const SimSnapshot *ckpt =
            share ? &checkpoint(checkpoint, ckpt_of(g)) : nullptr;
        const auto t0 = std::chrono::steady_clock::now();
        // A config whose geometry cannot restore the shared checkpoint
        // fast-forwards inside runWindow, which must place the window
        // at its own offset: hand it the per-sample fast-forward.
        SampleParams q = p;
        q.fastforwardInsts = window_ff(sample);
        const std::size_t out = (w * n_configs + c) * p.samples + sample;
        windows[out] =
            runWindow(program(w, sample), configs[c], q, ckpt, &work[out]);
        window_secs[out] = secondsSince(t0);
        if (share)
            checkpoints[ckpt_of(g)].release();
        programs[program_of(w, sample)].release();
        if (progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress(++done, total);
        }
    });

    // Reduce in index order (scheduling-independent).
    std::vector<RunResult> results;
    results.reserve(cells);
    std::vector<WindowStats> cell_windows(p.samples);
    for (std::size_t cell = 0; cell < cells; ++cell) {
        for (unsigned s = 0; s < p.samples; ++s)
            cell_windows[s] = windows[cell * p.samples + s];
        results.push_back(aggregateWindows(cell_windows));
    }
    if (stats) {
        double ff_total = 0.0;
        for (std::size_t i = 0; i < checkpoints.size(); ++i) {
            stats->ffRuns += built[i];
            stats->ffInsts += ff_insts[i];
            stats->warmITouches += warm[i].iTouches;
            stats->warmDTouches += warm[i].dTouches;
            stats->warmBpTrains += warm[i].bpTrains;
            if (corpus) {
                stats->ckptHits += built[i] ? 0 : 1;
                stats->ckptMisses += built[i] ? 1 : 0;
                stats->ckptBytes += corpus_bytes[i];
            }
            ff_total += ff_secs[i];
        }
        if (share && p.chainSamples)
            stats->ckptChainLen =
                std::max<std::uint64_t>(stats->ckptChainLen, p.samples);
        double detailed_total = 0.0;
        for (std::size_t t = 0; t < total; ++t) {
            stats->accumulate(work[t]);
            detailed_total += window_secs[t];
        }
        if (share)
            stats->timings.record("fast_forward", ff_total);
        stats->timings.record("detailed", detailed_total);
    }
    return results;
}

std::vector<RunResult>
runGrid(const std::vector<std::unique_ptr<Workload>> &workloads,
        const std::vector<SimConfig> &configs, const SampleParams &p,
        const std::function<void(std::size_t, std::size_t)> &progress,
        GridStats *stats, CheckpointStore *corpus)
{
    std::vector<const Workload *> ptrs;
    ptrs.reserve(workloads.size());
    for (const auto &w : workloads)
        ptrs.push_back(w.get());
    return runGrid(ptrs, configs, p, progress, stats, corpus);
}

} // namespace nda
