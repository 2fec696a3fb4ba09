/**
 * @file
 * Simulator-throughput microbenchmark: reports KIPS (simulated
 * kilo-instructions per host-second) per machine profile, MIPS for
 * the predecoded architectural interpreter (the fast-forward engine),
 * plus the aggregate harness throughput with `--jobs` concurrent
 * windows, and writes BENCH_throughput.json so the performance
 * trajectory of the core hot path is tracked from PR to PR.
 *
 * Per-profile numbers are measured serially (one window at a time) so
 * they isolate single-core simulation speed; the harness number runs
 * the same windows through runGrid() on the pool.
 *
 * `--engine=interp` measures only the interpreter (the CI perf-smoke
 * path), and `--min-interp-mips=N` turns the bare-interpreter number
 * into a pass/fail floor.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "branch/predictor_unit.hh"
#include "harness/csv.hh"
#include "harness/table_printer.hh"
#include "isa/interpreter.hh"
#include "mem/hierarchy.hh"
#include "obs/stats_schema.hh"

using namespace nda;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ProfileKips {
    Profile profile;
    std::uint64_t instructions = 0;
    double seconds = 0.0;
    double kips() const { return instructions / seconds / 1000.0; }
};

/** One interpreter configuration's aggregate throughput. */
struct InterpMips {
    const char *mode = "";
    std::uint64_t instructions = 0;
    double seconds = 0.0;
    WarmingWork warm;
    double mips() const { return instructions / seconds / 1e6; }
};

/**
 * Run every workload for `insts_each` functional instructions on a
 * fresh interpreter and report aggregate host throughput.
 * `warm` attaches a default-geometry hierarchy + predictor (the grid
 * fast-forward configuration); `step_loop` drives the legacy
 * switch-dispatched step() oracle instead of the threaded run() loop,
 * giving the before/after comparison on identical work.
 */
InterpMips
measureInterp(const std::vector<std::unique_ptr<Workload>> &workloads,
              std::uint64_t seed, std::uint64_t insts_each, bool warm,
              bool step_loop)
{
    InterpMips r;
    r.mode = step_loop ? "interp-step" : warm ? "interp+warm" : "interp";
    const auto t0 = Clock::now();
    for (const auto &w : workloads) {
        const Program prog = w->build(seed);
        Interpreter interp(prog);
        MemHierarchy hier{HierarchyParams{}};
        PredictorUnit bp{PredictorParams{}};
        if (warm)
            interp.attachWarming(&hier, &bp);
        if (step_loop) {
            const std::uint64_t start = interp.instCount();
            while (!interp.halted() &&
                   interp.instCount() - start < insts_each)
                interp.step();
            r.instructions += interp.instCount() - start;
        } else {
            r.instructions += interp.run(insts_each);
        }
        r.warm += interp.warmingWork();
    }
    r.seconds = secondsSince(t0);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchObs obs;
    BenchCkpt ckpt;
    std::string json_path = "BENCH_throughput.json";
    std::string engine = "all";
    double min_interp_mips = 0.0;
    bool quick = false;
    bool stats_schema = false;
    GridSpec spec = parseBenchArgs(
        argc, argv,
        {"--json=", "--stats-schema", "--engine=", "--min-interp-mips=",
         BenchCkpt::kUsageDir, BenchCkpt::kUsageMaxBytes,
         BenchCkpt::kUsageNoCkpt},
        &obs, &ckpt, 0, [&](const std::string &arg, std::string &error) {
            if (arg == "--quick") {
                // Also shrinks the interpreter and corpus runs below;
                // left untaken so the grid flags apply it as well.
                quick = true;
                return false;
            }
            if (arg.rfind("--json=", 0) == 0) {
                json_path = arg.substr(7);
            } else if (arg.rfind("--engine=", 0) == 0) {
                engine = arg.substr(9);
                if (engine != "all" && engine != "interp")
                    error = "unknown engine '" + engine +
                            "' (expected all or interp)";
            } else if (arg.rfind("--min-interp-mips=", 0) == 0) {
                char *end = nullptr;
                min_interp_mips = std::strtod(arg.c_str() + 18, &end);
                if (end == arg.c_str() + 18 || *end != '\0' ||
                    min_interp_mips < 0.0)
                    error = "bad --min-interp-mips value '" +
                            arg.substr(18) + "'";
            } else if (arg == "--stats-schema") {
                stats_schema = true;
            } else {
                return false;
            }
            return true;
        });
    if (stats_schema) {
        // Print the canonical stat-name schema and exit; CI diffs
        // this against tests/golden/stats_schema.txt.
        for (const std::string &name : canonicalStatsSchema())
            std::printf("%s\n", name.c_str());
        return 0;
    }
    SampleParams &sp = spec.params;
    const bool run_cores = engine == "all";
    // One window per (workload, profile): this measures host-side
    // simulation speed, not simulated statistics, so samples add
    // nothing but wall-clock.
    sp.samples = 1;

    printBanner("Simulator throughput (KIPS = simulated kilo-insts "
                "per host-second)");

    // A branch-heavy, a memory-bound, and an ILP-rich kernel: the mix
    // exercises every pipeline structure without running the full
    // 16-kernel suite.
    spec.workloads = {"compute", "branchy", "ptrchase", "mixed"};
    const auto workloads = spec.makeWorkloads();

    // Interpreter throughput: bare (checkpoint placement), with
    // functional warming attached (the grid fast-forward engine), and
    // through the legacy step() oracle as the dispatch baseline.
    const std::uint64_t interp_each =
        quick ? 1'000'000ull : 4'000'000ull;
    ScopedTimer interp_timer(obs.timings, "interpreter");
    const InterpMips interp_bare =
        measureInterp(workloads, sp.baseSeed, interp_each, false, false);
    const InterpMips interp_warm = measureInterp(
        workloads, sp.baseSeed, interp_each / 4, true, false);
    const InterpMips interp_step = measureInterp(
        workloads, sp.baseSeed, interp_each / 8, false, true);
    interp_timer.stop();
    {
        TablePrinter itable({"engine", "sim insts", "host sec", "MIPS"});
        for (const InterpMips *r :
             {&interp_bare, &interp_warm, &interp_step}) {
            itable.addRow({r->mode, std::to_string(r->instructions),
                           TablePrinter::fmt(r->seconds, 3),
                           TablePrinter::fmt(r->mips(), 1)});
        }
        itable.print();
        std::printf("threaded run() vs step() oracle: %.1fx\n",
                    interp_bare.mips() / interp_step.mips());
    }

    std::vector<ProfileKips> results;
    double grid_seconds = 0.0;
    std::uint64_t grid_insts = 0;
    double grid_kips = 0.0;
    double legacy_seconds = 0.0;
    double reuse_seconds = 0.0;
    double reuse_speedup = 0.0;
    GridStats legacy_stats;
    GridStats reuse_stats;
    SampleParams ab = sp;
    std::vector<std::unique_ptr<Workload>> ab_workloads;
    const std::vector<SimConfig> configs = spec.configs();
    // Warm-corpus A/B (chained sampling, persistent CheckpointStore).
    SampleParams corpus_ab = sp;
    double nocorpus_seconds = 0.0;
    double cold_seconds = 0.0;
    double warm_seconds = 0.0;
    double warm_speedup = 0.0;
    bool corpus_identical = false;
    GridStats nocorpus_stats;
    GridStats cold_stats;
    GridStats warm_stats;

    if (run_cores) {
        TablePrinter table({"profile", "sim insts", "host sec", "KIPS"});
        ScopedTimer serial_timer(obs.timings, "per-profile-serial");
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const Profile p = spec.profiles[i];
            const SimConfig &cfg = configs[i];
            ProfileKips r{p};
            const auto t0 = Clock::now();
            for (const auto &w : workloads) {
                const WindowStats s = runWindow(*w, cfg, sp.baseSeed, sp);
                // Warm-up instructions are simulated work too.
                r.instructions += s.instructions + sp.warmupInsts;
            }
            r.seconds = secondsSince(t0);
            results.push_back(r);
            table.addRow({profileName(p),
                          std::to_string(r.instructions),
                          TablePrinter::fmt(r.seconds, 2),
                          TablePrinter::fmt(r.kips(), 1)});
        }
        serial_timer.stop();
        table.print();

        // Aggregate harness throughput: the same grid through the pool.
        const auto t0 = Clock::now();
        ScopedTimer grid_timer(obs.timings, "harness-grid");
        const std::vector<RunResult> grid =
            runGrid(workloads, configs, sp);
        grid_timer.stop();
        grid_seconds = secondsSince(t0);
        for (const RunResult &r : grid)
            grid_insts += r.mean.instructions +
                          sp.warmupInsts * sp.samples;
        grid_kips = grid_insts / grid_seconds / 1000.0;
        std::printf("\nHarness aggregate (--jobs=%u): %llu insts in "
                    "%.2fs = %.1f KIPS\n",
                    sp.jobs,
                    static_cast<unsigned long long>(grid_insts),
                    grid_seconds, grid_kips);

        // Checkpoint-reuse A/B: the same multi-profile sweep with a
        // dominant fast-forward, legacy (rebuild per window) vs shared
        // checkpoints. Fixed at --jobs=2 so the comparison measures
        // work eliminated, not how much idle hardware can hide the
        // extra fast-forwards.
        ab.fastforwardInsts = 500'000;
        ab.warmupInsts = 2'000;
        ab.measureInsts = 5'000;
        ab.samples = 2;
        ab.jobs = 2;
        ab_workloads.push_back(makeWorkload("compute"));
        ab_workloads.push_back(makeWorkload("branchy"));

        SampleParams ab_legacy = ab;
        ab_legacy.reuseCheckpoints = false;
        const auto legacy_t0 = Clock::now();
        {
            ScopedTimer t(obs.timings, "reuse-ab-legacy");
            runGrid(ab_workloads, configs, ab_legacy, nullptr,
                    &legacy_stats);
        }
        legacy_seconds = secondsSince(legacy_t0);

        const auto reuse_t0 = Clock::now();
        {
            ScopedTimer t(obs.timings, "reuse-ab-reuse");
            runGrid(ab_workloads, configs, ab, nullptr, &reuse_stats);
        }
        reuse_seconds = secondsSince(reuse_t0);
        reuse_speedup = legacy_seconds / reuse_seconds;
        std::printf("\nGrid checkpoint reuse (%zu workloads x %zu "
                    "profiles x %u samples, %lluk ff insts, jobs=2):\n"
                    "  legacy  %llu fast-forwards, %.2fs\n"
                    "  reuse   %llu fast-forwards, %.2fs  (%.2fx, "
                    "ff %.1f MIPS)\n",
                    ab_workloads.size(), configs.size(), ab.samples,
                    static_cast<unsigned long long>(
                        ab.fastforwardInsts / 1000),
                    static_cast<unsigned long long>(
                        legacy_stats.ffRuns),
                    legacy_seconds,
                    static_cast<unsigned long long>(reuse_stats.ffRuns),
                    reuse_seconds, reuse_speedup,
                    reuse_stats.ffMips());

        // Warm-corpus A/B: the same chained sweep three times —
        // without a corpus, against a cold corpus (builds + publishes),
        // and against the now-warm corpus (pure loads). The chained
        // stride dominates wall-clock, so the warm run's speedup is
        // the checkpoint subsystem's whole value proposition in one
        // number; the three result sets must be bit-identical.
        corpus_ab = ab;
        corpus_ab.chainSamples = true;
        corpus_ab.fastforwardInsts = quick ? 8'000'000 : 24'000'000;
        corpus_ab.warmupInsts = 500;
        corpus_ab.measureInsts = 1'000;
        corpus_ab.samples = 2;

        const std::string corpus_dir =
            ckpt.wantCorpus() ? ckpt.dir : "nda_ckpt_ab_corpus";
        std::error_code ec;
        std::filesystem::remove_all(corpus_dir, ec); // guarantee cold

        const auto nocorpus_t0 = Clock::now();
        std::vector<RunResult> nocorpus_grid;
        {
            ScopedTimer t(obs.timings, "corpus-ab-nocorpus");
            nocorpus_grid = runGrid(ab_workloads, configs, corpus_ab,
                                    nullptr, &nocorpus_stats);
        }
        nocorpus_seconds = secondsSince(nocorpus_t0);

        std::vector<RunResult> cold_grid;
        std::vector<RunResult> warm_grid;
        {
            CheckpointStore corpus(corpus_dir, ckpt.maxBytes);
            const auto cold_t0 = Clock::now();
            {
                ScopedTimer t(obs.timings, "corpus-ab-cold");
                cold_grid = runGrid(ab_workloads, configs, corpus_ab,
                                    nullptr, &cold_stats, &corpus);
            }
            cold_seconds = secondsSince(cold_t0);
            const auto warm_t0 = Clock::now();
            {
                ScopedTimer t(obs.timings, "corpus-ab-warm");
                warm_grid = runGrid(ab_workloads, configs, corpus_ab,
                                    nullptr, &warm_stats, &corpus);
            }
            warm_seconds = secondsSince(warm_t0);
        }
        warm_speedup = warm_seconds > 0.0
                           ? nocorpus_seconds / warm_seconds
                           : 0.0;
        corpus_identical =
            nocorpus_grid.size() == cold_grid.size() &&
            cold_grid.size() == warm_grid.size();
        for (std::size_t i = 0; corpus_identical &&
                                i < nocorpus_grid.size(); ++i) {
            corpus_identical =
                nocorpus_grid[i].cpiSamples == cold_grid[i].cpiSamples &&
                cold_grid[i].cpiSamples == warm_grid[i].cpiSamples;
        }
        if (!ckpt.wantCorpus())
            std::filesystem::remove_all(corpus_dir, ec);
        std::printf("\nCheckpoint corpus (chained, %zu workloads x %zu "
                    "profiles x %u samples, %lluk stride, jobs=%u):\n"
                    "  no corpus  %.2fs (%llu fast-forwards)\n"
                    "  cold       %.2fs (%llu misses published)\n"
                    "  warm       %.2fs (%llu hits, %.2fx vs no "
                    "corpus)  results %s\n",
                    ab_workloads.size(), configs.size(),
                    corpus_ab.samples,
                    static_cast<unsigned long long>(
                        corpus_ab.fastforwardInsts / 1000),
                    corpus_ab.jobs, nocorpus_seconds,
                    static_cast<unsigned long long>(
                        nocorpus_stats.ffRuns),
                    cold_seconds,
                    static_cast<unsigned long long>(
                        cold_stats.ckptMisses),
                    warm_seconds,
                    static_cast<unsigned long long>(
                        warm_stats.ckptHits),
                    warm_speedup,
                    corpus_identical ? "bit-identical" : "DIVERGED");
    }

    std::FILE *json = std::fopen(json_path.c_str(), "w");
    if (!json) {
        NDA_WARN("cannot write %s", json_path.c_str());
        return 1;
    }
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"sim_throughput\",\n"
                 "  \"engine\": \"%s\",\n"
                 "  \"measure_insts\": %llu,\n"
                 "  \"warmup_insts\": %llu,\n"
                 "  \"jobs\": %u,\n",
                 engine.c_str(),
                 static_cast<unsigned long long>(sp.measureInsts),
                 static_cast<unsigned long long>(sp.warmupInsts),
                 sp.jobs);
    std::fprintf(json, "  \"interpreter\": {\n");
    const InterpMips *interp_rows[] = {&interp_bare, &interp_warm,
                                       &interp_step};
    const char *interp_keys[] = {"bare", "warmed", "step"};
    for (int i = 0; i < 3; ++i) {
        const InterpMips &r = *interp_rows[i];
        std::fprintf(json,
                     "    \"%s\": {\"instructions\": %llu, "
                     "\"seconds\": %.4f, \"mips\": %.1f},\n",
                     interp_keys[i],
                     static_cast<unsigned long long>(r.instructions),
                     r.seconds, r.mips());
    }
    std::fprintf(json,
                 "    \"speedup_vs_step\": %.2f",
                 interp_bare.mips() / interp_step.mips());
    for (const ProfileKips &r : results) {
        if (r.profile == Profile::kInOrder) {
            std::fprintf(json, ",\n    \"x_inorder\": %.1f",
                         interp_bare.mips() * 1000.0 / r.kips());
            break;
        }
    }
    std::fprintf(json, "\n  }%s\n", run_cores ? "," : "");
    if (run_cores) {
        std::fprintf(json, "  \"profiles\": [\n");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const ProfileKips &r = results[i];
            std::fprintf(
                json,
                "    {\"name\": \"%s\", \"instructions\": %llu, "
                "\"seconds\": %.4f, \"kips\": %.1f}%s\n",
                profileName(r.profile),
                static_cast<unsigned long long>(r.instructions),
                r.seconds, r.kips(),
                i + 1 < results.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n"
                     "  \"harness\": {\"jobs\": %u, \"instructions\": "
                     "%llu, \"seconds\": %.4f, \"kips\": %.1f},\n",
                     sp.jobs,
                     static_cast<unsigned long long>(grid_insts),
                     grid_seconds, grid_kips);
        std::fprintf(
            json,
            "  \"grid_checkpoint_reuse\": {\"workloads\": %zu, "
            "\"profiles\": %zu, \"samples\": %u, "
            "\"fastforward_insts\": %llu, \"jobs\": 2,\n"
            "    \"legacy_ff_runs\": %llu, \"legacy_seconds\": "
            "%.4f,\n"
            "    \"reuse_ff_runs\": %llu, \"reuse_seconds\": "
            "%.4f, \"speedup\": %.2f, \"ff_mips\": %.1f},\n",
            ab_workloads.size(), configs.size(), ab.samples,
            static_cast<unsigned long long>(ab.fastforwardInsts),
            static_cast<unsigned long long>(legacy_stats.ffRuns),
            legacy_seconds,
            static_cast<unsigned long long>(reuse_stats.ffRuns),
            reuse_seconds, reuse_speedup, reuse_stats.ffMips());
        std::fprintf(
            json,
            "  \"checkpoint_corpus\": {\"chained\": true, "
            "\"samples\": %u, \"stride_insts\": %llu, \"jobs\": %u,\n"
            "    \"nocorpus_seconds\": %.4f, \"cold_seconds\": %.4f, "
            "\"warm_seconds\": %.4f,\n"
            "    \"warm_speedup\": %.2f, \"cold_misses\": %llu, "
            "\"warm_hits\": %llu, \"ckpt_bytes\": %llu,\n"
            "    \"chain_len\": %llu, \"bit_identical\": %s}\n",
            corpus_ab.samples,
            static_cast<unsigned long long>(
                corpus_ab.fastforwardInsts),
            corpus_ab.jobs, nocorpus_seconds, cold_seconds,
            warm_seconds, warm_speedup,
            static_cast<unsigned long long>(cold_stats.ckptMisses),
            static_cast<unsigned long long>(warm_stats.ckptHits),
            static_cast<unsigned long long>(cold_stats.ckptBytes +
                                            warm_stats.ckptBytes),
            static_cast<unsigned long long>(warm_stats.ckptChainLen),
            corpus_identical ? "true" : "false");
    }
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());

    emitBenchObs(obs, "sim_throughput", Profile::kStrict, sp,
                 [&](RunManifest &m, StatsRegistry &reg) {
                     m.set("interp_bare_mips", interp_bare.mips());
                     m.set("interp_warmed_mips", interp_warm.mips());
                     m.set("interp_step_mips", interp_step.mips());
                     m.set("interp_warm_i_touches",
                           interp_warm.warm.iTouches);
                     m.set("interp_warm_d_touches",
                           interp_warm.warm.dTouches);
                     m.set("interp_warm_bp_trains",
                           interp_warm.warm.bpTrains);
                     if (run_cores) {
                         m.set("harness_kips", grid_kips);
                         m.set("harness_insts", grid_insts);
                         m.set("reuse_speedup", reuse_speedup);
                         m.set("corpus_warm_speedup", warm_speedup);
                         m.set("corpus_bit_identical",
                               corpus_identical);
                         // Warm-run stats so the manifest's
                         // harness.ckpt_* counters show corpus hits.
                         warm_stats.registerStats(reg, "harness");
                         for (const ProfileKips &r : results)
                             m.set(std::string("kips_") +
                                       profileName(r.profile),
                                   r.kips());
                     }
                 });

    if (min_interp_mips > 0.0 &&
        interp_bare.mips() < min_interp_mips) {
        std::fprintf(stderr,
                     "FAIL: interpreter throughput %.1f MIPS is below "
                     "the floor of %.1f MIPS\n",
                     interp_bare.mips(), min_interp_mips);
        return 1;
    }
    return 0;
}
