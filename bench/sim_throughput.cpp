/**
 * @file
 * Simulator-throughput smoke: reports KIPS (simulated kilo-instructions
 * per host-second) per machine profile, MIPS for the predecoded
 * architectural interpreter bare and with functional warming attached
 * (the grid fast-forward engine), and the aggregate harness
 * throughput with `--jobs` concurrent windows. These are single-shot
 * numbers for a quick look and for CI's floors; speed claims go
 * through perfbench (`python3 perfbench/run.py`), which repeats each
 * measurement in fresh workers.
 *
 * Per-profile numbers are measured serially (one window at a time) so
 * they isolate single-core simulation speed; the harness number runs
 * the same windows through runGrid() on the pool.
 *
 * `--engine=interp` measures only the interpreter (the CI perf-smoke
 * path), `--min-interp-mips=N` turns the bare-interpreter number into
 * a pass/fail floor, `--json=F` writes the numbers to F, and
 * `--stats-schema` prints the pinned stat-name schema.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "branch/predictor_unit.hh"
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
 * fast-forward configuration).
 */
InterpMips
measureInterp(const std::vector<std::unique_ptr<Workload>> &workloads,
              std::uint64_t seed, std::uint64_t insts_each, bool warm)
{
    InterpMips r;
    r.mode = warm ? "interp+warm" : "interp";
    const auto t0 = Clock::now();
    for (const auto &w : workloads) {
        const Program prog = w->build(seed);
        Interpreter interp(prog);
        MemHierarchy hier{HierarchyParams{}};
        PredictorUnit bp{PredictorParams{}};
        if (warm)
            interp.attachWarming(&hier, &bp);
        r.instructions += interp.run(insts_each);
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
    std::string json_path;
    std::string engine = "all";
    std::uint64_t min_interp_mips = 0;
    bool quick = false;
    bool stats_schema = false;
    GridSpec spec = parseBenchArgs(
        argc, argv,
        {"--json=F       write the measured numbers to F as JSON",
         "--stats-schema print the canonical stat-name schema and exit",
         "--engine=E     all (default) or interp (interpreter only)",
         "--min-interp-mips=N\n"
         "                 exit 1 if the bare interpreter runs below N "
         "MIPS"},
        &obs, nullptr, 0, [&](const std::string &arg, std::string &error) {
            if (arg == "--quick") {
                // Also shrinks the interpreter runs below; left
                // untaken so the grid flags apply it as well.
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
                const std::optional<std::uint64_t> n =
                    parseUnsigned(arg.substr(18));
                if (n)
                    min_interp_mips = *n;
                else
                    error = "bad --min-interp-mips value '" +
                            arg.substr(18) + "' (expected whole MIPS)";
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

    // Interpreter throughput: bare (checkpoint placement) and with
    // functional warming attached (the grid fast-forward engine).
    const std::uint64_t interp_each =
        quick ? 1'000'000ull : 4'000'000ull;
    ScopedTimer interp_timer(obs.timings, "interpreter");
    const InterpMips interp_bare =
        measureInterp(workloads, sp.baseSeed, interp_each, false);
    const InterpMips interp_warm =
        measureInterp(workloads, sp.baseSeed, interp_each / 4, true);
    interp_timer.stop();
    {
        TablePrinter itable({"engine", "sim insts", "host sec", "MIPS"});
        for (const InterpMips *r : {&interp_bare, &interp_warm}) {
            itable.addRow({r->mode, std::to_string(r->instructions),
                           TablePrinter::fmt(r->seconds, 3),
                           TablePrinter::fmt(r->mips(), 1)});
        }
        itable.print();
    }

    std::vector<ProfileKips> results;
    double grid_seconds = 0.0;
    std::uint64_t grid_insts = 0;
    double grid_kips = 0.0;
    GridStats grid_stats;

    if (run_cores) {
        const std::vector<SimConfig> configs = spec.configs();
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
            runGrid(workloads, configs, sp, nullptr, &grid_stats);
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
    }

    if (!json_path.empty()) {
        std::string json = "{\n  \"bench\": \"sim_throughput\",\n";
        char buf[256];
        const auto add = [&](const char *fmt, auto... args) {
            std::snprintf(buf, sizeof buf, fmt, args...);
            json += buf;
        };
        add("  \"engine\": \"%s\",\n  \"measure_insts\": %llu,\n"
            "  \"warmup_insts\": %llu,\n  \"jobs\": %u,\n"
            "  \"interpreter\": {\n",
            engine.c_str(),
            static_cast<unsigned long long>(sp.measureInsts),
            static_cast<unsigned long long>(sp.warmupInsts), sp.jobs);
        for (const InterpMips *r : {&interp_bare, &interp_warm}) {
            add("    \"%s\": {\"instructions\": %llu, \"seconds\": "
                "%.4f, \"mips\": %.1f}%s\n",
                r == &interp_bare ? "bare" : "warmed",
                static_cast<unsigned long long>(r->instructions),
                r->seconds, r->mips(), r == &interp_bare ? "," : "");
        }
        json += run_cores ? "  },\n  \"profiles\": [\n" : "  }\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const ProfileKips &r = results[i];
            add("    {\"name\": \"%s\", \"instructions\": %llu, "
                "\"seconds\": %.4f, \"kips\": %.1f}%s\n",
                profileName(r.profile),
                static_cast<unsigned long long>(r.instructions),
                r.seconds, r.kips(), i + 1 < results.size() ? "," : "");
        }
        if (run_cores) {
            add("  ],\n  \"harness\": {\"jobs\": %u, \"instructions\": "
                "%llu, \"seconds\": %.4f, \"kips\": %.1f}\n",
                sp.jobs, static_cast<unsigned long long>(grid_insts),
                grid_seconds, grid_kips);
        }
        json += "}\n";
        if (!writeBenchFile(json_path, json))
            return 1;
    }

    emitBenchObs(obs, "sim_throughput", Profile::kStrict, sp,
                 [&](RunManifest &m, StatsRegistry &reg) {
                     m.set("interp_bare_mips", interp_bare.mips());
                     m.set("interp_warmed_mips", interp_warm.mips());
                     m.set("interp_warm_i_touches",
                           interp_warm.warm.iTouches);
                     m.set("interp_warm_d_touches",
                           interp_warm.warm.dTouches);
                     m.set("interp_warm_bp_trains",
                           interp_warm.warm.bpTrains);
                     if (run_cores) {
                         m.set("harness_kips", grid_kips);
                         m.set("harness_insts", grid_insts);
                         grid_stats.registerStats(reg, "harness");
                         for (const ProfileKips &r : results)
                             m.set(std::string("kips_") +
                                       profileName(r.profile),
                                   r.kips());
                     }
                 });

    if (interp_bare.mips() < static_cast<double>(min_interp_mips)) {
        std::fprintf(stderr,
                     "FAIL: interpreter throughput %.1f MIPS is below "
                     "the floor of %llu MIPS\n",
                     interp_bare.mips(),
                     static_cast<unsigned long long>(min_interp_mips));
        return 1;
    }
    return 0;
}
