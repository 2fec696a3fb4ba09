/**
 * @file
 * Shared helpers for the figure/table regeneration binaries.
 */

#ifndef NDASIM_BENCH_BENCH_COMMON_HH
#define NDASIM_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint_store.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"
#include "core/core_factory.hh"
#include "core/ooo_core.hh"
#include "debug/pipe_trace.hh"
#include "harness/grid_spec.hh"
#include "harness/runner.hh"
#include "obs/cpi_stack.hh"
#include "obs/run_manifest.hh"
#include "obs/trace_export.hh"

namespace nda {

/** Print the shared usage text: the grid flags `cli_flags` enables,
 *  the observability flags, and the binary-specific `extra_flags`. */
inline void
printSampleUsage(const char *prog,
                 std::initializer_list<const char *> extra_flags,
                 unsigned cli_flags = 0)
{
    std::fprintf(stderr,
                 "usage: %s [options]\n%s"
                 "  --stats-out=F  write a JSON run manifest (config, "
                 "phase timings,\n"
                 "                 full stats dump of one instrumented "
                 "window)\n"
                 "  --trace-out=F  write a pipeline trace of that "
                 "window\n"
                 "  --trace-format=chrome|konata|text\n"
                 "                 trace renderer (default: chrome, "
                 "Perfetto-loadable)\n"
                 "  --quiet        warnings and results only\n"
                 "  -v             verbose (debug-level) logging\n",
                 prog, gridUsage(cli_flags).c_str());
    for (const char *f : extra_flags)
        std::fprintf(stderr, "  %s\n", f);
}

/**
 * Observability knobs shared by every bench binary: where to write
 * the run manifest and the pipeline trace, which trace renderer to
 * use, and the wall-clock phase timings the manifest reports.
 */
struct BenchObs {
    std::string statsOut;    ///< --stats-out= (empty: no manifest)
    std::string traceOut;    ///< --trace-out= (empty: no trace)
    TraceFormat traceFormat = TraceFormat::kChrome;
    PhaseTimings timings;

    bool wantStats() const { return !statsOut.empty(); }
    bool wantTrace() const { return !traceOut.empty(); }
    bool enabled() const { return wantStats() || wantTrace(); }

    /** Consume one argv token; false if it is not an obs flag. */
    bool
    parseArg(const std::string &arg, const char *prog)
    {
        if (arg.rfind("--stats-out=", 0) == 0) {
            statsOut = arg.substr(12);
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            traceOut = arg.substr(12);
        } else if (arg.rfind("--trace-format=", 0) == 0) {
            if (!parseTraceFormat(arg.substr(15), traceFormat)) {
                std::fprintf(stderr,
                             "%s: unknown trace format in '%s' "
                             "(expected chrome, konata, or text)\n",
                             prog, arg.c_str());
                std::exit(2);
            }
        } else {
            return parseVerbosity(arg);
        }
        return true;
    }

    /** Consume --quiet/-q or -v/--verbose; false for anything else. */
    static bool
    parseVerbosity(const std::string &arg)
    {
        if (arg == "--quiet" || arg == "-q")
            logVerbosity = 0;
        else if (arg == "-v" || arg == "--verbose")
            logVerbosity = 2;
        else
            return false;
        return true;
    }
};

/**
 * Checkpoint-corpus knobs shared by the grid-driving bench binaries
 * (fig07_cpi, table02_overheads, grid_server): where the on-disk
 * corpus lives, its LRU size cap, and an off switch that wins over
 * --ckpt-dir so scripts can layer flags.
 */
struct BenchCkpt {
    std::string dir;             ///< --ckpt-dir= (empty: no corpus)
    std::uint64_t maxBytes = 0;  ///< --ckpt-max-bytes= (0: unbounded)
    bool disabled = false;       ///< --no-ckpt

    bool wantCorpus() const { return !dir.empty() && !disabled; }

    /** Open the corpus, or nullptr when none was requested. The
     *  returned store must outlive every runGrid call using it. */
    std::unique_ptr<CheckpointStore>
    open() const
    {
        if (!wantCorpus())
            return nullptr;
        return std::make_unique<CheckpointStore>(dir, maxBytes);
    }

    /** Usage lines for printSampleUsage's `extra_flags`. */
    static constexpr const char *kUsageDir =
        "--ckpt-dir=DIR persistent checkpoint corpus (shared across "
        "runs)";
    static constexpr const char *kUsageMaxBytes =
        "--ckpt-max-bytes=N\n"
        "                 LRU size cap for the corpus (0 = unbounded)";
    static constexpr const char *kUsageNoCkpt =
        "--no-ckpt      ignore --ckpt-dir and run without a corpus";

    /** Consume one argv token; false if it is not a corpus flag. */
    bool
    parseArg(const std::string &arg, const char *prog)
    {
        if (arg.rfind("--ckpt-dir=", 0) == 0) {
            dir = arg.substr(11);
            if (dir.empty()) {
                std::fprintf(stderr, "%s: --ckpt-dir= needs a path\n",
                             prog);
                std::exit(2);
            }
        } else if (arg.rfind("--ckpt-max-bytes=", 0) == 0) {
            const std::optional<std::uint64_t> n =
                parseUnsigned(arg.substr(17));
            if (!n) {
                std::fprintf(stderr,
                             "%s: invalid value in '%s' (expected a "
                             "number of bytes)\n",
                             prog, arg.c_str());
                std::exit(2);
            }
            maxBytes = *n;
        } else if (arg == "--no-ckpt") {
            disabled = true;
        } else {
            return false;
        }
        return true;
    }
};

/**
 * Parse a bench command line in one pass (gridSpecFromArgs), offering
 * each token to `own`, `obs` and `ckpt` before the grid flags. A bad
 * or unknown argument prints the usage text and exits 2 — a misspelled
 * flag silently falling back to defaults has burned enough measurement
 * time already. --help exits 0.
 */
inline GridSpec
parseBenchArgs(int argc, char **argv,
               std::initializer_list<const char *> usage,
               BenchObs *obs, BenchCkpt *ckpt = nullptr,
               unsigned cli_flags = 0, const ArgHandler &own = nullptr)
{
    // Benches narrate via NDA_INFORM by default; --quiet/-v adjust.
    logVerbosity = std::max(logVerbosity, 1);
    GridSpec spec;
    const std::string error = gridSpecFromArgs(
        std::vector<std::string>(argv + 1, argv + argc), spec, cli_flags,
        [&](const std::string &arg, std::string &err) {
            if (arg == "--help" || arg == "-h") {
                printSampleUsage(argv[0], usage, cli_flags);
                std::exit(0);
            }
            return (own && own(arg, err)) ||
                   (obs && obs->parseArg(arg, argv[0])) ||
                   (ckpt && ckpt->parseArg(arg, argv[0]));
        });
    if (!error.empty()) {
        std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
        printSampleUsage(argv[0], usage, cli_flags);
        std::exit(2);
    }
    return spec;
}

/** A grid column's commit slots pooled over every workload: cause
 *  c contributes slots_c / (width x insts) cycles per instruction, so
 *  the contributions sum exactly to the pooled CPI. */
struct PooledCpiStack {
    std::array<double, kNumStallCauses> contrib{};
    double cpi = 0.0; ///< pooled cycles / pooled instructions
};

/** One PooledCpiStack per config of a row-major `grid` of `ncfg`
 *  columns run with SampleParams::cpiStack. */
inline std::vector<PooledCpiStack>
pooledCpiStacks(const std::vector<RunResult> &grid, std::size_t ncfg)
{
    std::vector<PooledCpiStack> out(ncfg);
    for (std::size_t ci = 0; ci < ncfg; ++ci) {
        std::array<std::uint64_t, kNumStallCauses> slots{};
        std::uint64_t insts = 0;
        std::uint64_t cycles = 0;
        unsigned width = 0;
        for (std::size_t cell = ci; cell < grid.size(); cell += ncfg) {
            const RunResult &r = grid[cell];
            for (int c = 0; c < kNumStallCauses; ++c)
                slots[c] += r.mean.slotStack[c];
            insts += r.mean.instructions;
            cycles += r.mean.cycles;
            width = r.mean.slotWidth;
        }
        const double den =
            static_cast<double>(width) * static_cast<double>(insts);
        for (int c = 0; c < kNumStallCauses; ++c)
            out[ci].contrib[c] =
                den ? static_cast<double>(slots[c]) / den : 0.0;
        out[ci].cpi = insts ? static_cast<double>(cycles) /
                                  static_cast<double>(insts)
                            : 0.0;
    }
    return out;
}

/** `\r`-style progress meter for grid sweeps (stderr; silenced by
 *  --quiet). */
inline void
gridProgress(std::size_t done, std::size_t total)
{
    if (logVerbosity < 1)
        return;
    std::fprintf(stderr, "\r  %zu/%zu windows", done, total);
    if (done == total)
        std::fprintf(stderr, "\n");
}

/**
 * Run a bench's grid: `spec` over `workloads` on the corpus `ckpt`
 * opens (if any; its traffic is reported), with the progress meter,
 * timed as obs's "grid" phase.
 */
inline std::vector<RunResult>
runBenchGrid(const GridSpec &spec,
             const std::vector<std::unique_ptr<Workload>> &workloads,
             BenchObs &obs, const BenchCkpt *ckpt = nullptr,
             GridStats *stats = nullptr)
{
    const std::unique_ptr<CheckpointStore> corpus =
        ckpt ? ckpt->open() : nullptr;
    ScopedTimer timer(obs.timings, "grid");
    std::vector<RunResult> grid =
        runGrid(workloads, spec.configs(), spec.params, gridProgress,
                stats, corpus.get());
    timer.stop();
    if (corpus) {
        NDA_INFORM("checkpoint corpus '%s': %llu hits, %llu misses, "
                   "%llu entries on disk",
                   corpus->dir().c_str(),
                   static_cast<unsigned long long>(corpus->stats().hits),
                   static_cast<unsigned long long>(
                       corpus->stats().misses),
                   static_cast<unsigned long long>(corpus->entryCount()));
    }
    return grid;
}

/** Write `content` to `path`; NDA_WARNs instead of aborting, so a
 *  bad output path never discards the run that produced the data. */
inline bool
writeBenchFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        NDA_WARN("cannot open '%s' for writing", path.c_str());
        return false;
    }
    const std::size_t n =
        std::fwrite(content.data(), 1, content.size(), f);
    const int closed = std::fclose(f);
    if (n != content.size() || closed != 0) {
        NDA_WARN("short write to '%s'", path.c_str());
        return false;
    }
    NDA_INFORM("wrote %s", path.c_str());
    return true;
}

/**
 * Emit the requested observability artifacts by running one
 * *representative instrumented window*: a fresh core on `profile`
 * with every component bound into a StatsRegistry and (if a trace was
 * requested) the PipeTrace retire hook attached. Bench binaries call
 * this once, after their main measurement, with the profile that best
 * characterizes what they measure — under any NDA profile the Chrome
 * trace shows the complete->broadcast deferral as `nda_defer` slices.
 *
 * `extra` (optional) runs before the manifest is rendered so the
 * bench can add result fields and bind additional stats (e.g. the
 * fuzzing campaign totals); anything bound there must outlive the
 * call.
 */
inline void
emitBenchObs(BenchObs &obs, const char *bench, Profile profile,
             const SampleParams &sp,
             const std::function<void(RunManifest &, StatsRegistry &)>
                 &extra = nullptr)
{
    if (!obs.enabled())
        return;

    const std::unique_ptr<Workload> workload = makeWorkload("mixed");
    const SimConfig cfg = makeProfile(profile);
    const Program prog = workload->build(sp.baseSeed);
    const auto core = makeCore(prog, cfg);

    StatsRegistry reg;
    core->registerStats(reg, "core");

    // The instrumented window always carries the CPI-stack profiler:
    // its slot decomposition belongs in every manifest (and keeps the
    // manifest's stats dump congruent with the registry schema).
    CpiStackProfiler cpi(cfg.inOrder ? 1u : cfg.core.commitWidth);
    core->attachCpiStack(&cpi);
    cpi.registerStats(reg, "core.cpi_stack");

    PipeTrace trace;
    if (obs.wantTrace()) {
        // Only the OoO pipeline has a per-instruction retire hook.
        if (auto *ooo = dynamic_cast<OooCore *>(core.get()))
            ooo->setRetireHook(trace.hook());
        else
            NDA_WARN("profile '%s' has no pipeline trace hook; "
                     "'%s' will hold an empty trace",
                     profileName(profile), obs.traceOut.c_str());
    }

    {
        ScopedTimer timer(obs.timings, "instrumented-window");
        core->run(sp.warmupInsts, ~Cycle{0});
        core->resetCounters();
        cpi.reset();
        trace.clear();
        core->run(sp.measureInsts, ~Cycle{0});
    }

    if (obs.wantTrace()) {
        const TraceExporter exporter(trace.records());
        writeBenchFile(obs.traceOut, exporter.render(obs.traceFormat));
    }

    if (obs.wantStats()) {
        RunManifest m(bench);
        m.set("profile", profileName(profile));
        m.set("workload", workload->name());
        m.set("seed", sp.baseSeed);
        m.set("samples", static_cast<std::uint64_t>(sp.samples));
        m.set("fastforward_insts", sp.fastforwardInsts);
        m.set("warmup_insts", sp.warmupInsts);
        m.set("measure_insts", sp.measureInsts);
        m.set("jobs", static_cast<std::uint64_t>(sp.jobs));
        // Latency-distribution summaries of the instrumented window
        // (Fig 9d's dispatch-to-issue plus the two NDA residency
        // histograms) — the full distributions live under "stats".
        const PerfCounters &pcs = core->counters();
        const auto pct = [&m](const char *base, const Histogram &h) {
            const std::string k(base);
            m.set(k + "_p50", h.percentile(0.50));
            m.set(k + "_p95", h.percentile(0.95));
            m.set(k + "_p99", h.percentile(0.99));
        };
        pct("dispatch_to_issue", pcs.dispatchToIssue);
        pct("deferred_delay", pcs.deferredBroadcastDelay);
        pct("unsafe_residency", pcs.unsafeResidency);
        // Where the window's lost slots went, by PC.
        m.setRaw("cpi_hotspots", cpi.hotspots().topJson(kHotspotTopN));
        if (obs.wantTrace()) {
            m.set("trace_out", obs.traceOut);
            m.set("trace_format", traceFormatName(obs.traceFormat));
        }
        if (extra)
            extra(m, reg);
        m.setTimings(&obs.timings);
        m.setStats(&reg);
        if (m.writeFile(obs.statsOut))
            NDA_INFORM("wrote %s", obs.statsOut.c_str());
    }
}

} // namespace nda

#endif // NDASIM_BENCH_BENCH_COMMON_HH
