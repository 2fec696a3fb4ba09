/**
 * @file
 * Differential fuzzing campaign driver.
 *
 * Default mode generates `--runs` random programs and cross-checks the
 * reference interpreter against every machine profile (architectural
 * state, DIFT taint, per-cycle pipeline invariants). `--inject=KIND`
 * instead runs the checker self-test: deliberately corrupt pipeline
 * state and verify the corruption is caught by the expected invariant
 * family. `--minimize` shrinks any failing (or injected) program to a
 * small repro under --corpus-dir.
 *
 * Exit status: 0 = clean, 1 = failures found (or an injected
 * corruption went undetected), 2 = usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/thread_pool.hh"
#include "fuzz/corpus.hh"
#include "fuzz/differential_fuzzer.hh"
#include "fuzz/minimizer.hh"

namespace {

using namespace nda;

constexpr std::uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();

void
printUsage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --runs=N          seeds to test (default 100)\n"
        "  --seed0=N         first seed (default 1)\n"
        "  --jobs=N          parallel lanes (default: hardware "
        "threads; results are identical for any N)\n"
        "  --profile=NAME    restrict to one profile (repeatable; "
        "default: all ten)\n"
        "  --no-dift         skip DIFT taint comparison\n"
        "  --no-invariants   detach the per-cycle invariant checker\n"
        "  --mshr=N          MSHR entries per L1 file on every profile "
        "(default 0\n"
        "                    = legacy eager fills; 1 = blocking; >= 2 "
        "= MLP)\n"
        "  --minimize        shrink failing programs and write corpus "
        "entries\n"
        "  --corpus-dir=DIR  corpus output directory (default "
        "tests/corpus)\n"
        "  --inject=KIND     checker self-test; KIND is one of "
        "freelist-leak,\n"
        "                    double-free, early-wakeup, "
        "rename-corrupt, rob-reorder,\n"
        "                    mshr-dup-primary, mshr-ghost-target, "
        "mshr-overflow,\n"
        "                    mshr-stuck-fill, smt-rename-bleed\n"
        "  --inject-seed=N   program seed for --inject (default 1)\n"
        "  --inject-cycle=N  first cycle eligible for corruption "
        "(default 2000)\n"
        "  --stats-out=F     write a JSON run manifest (campaign "
        "totals + one\n"
        "                    instrumented window)\n"
        "  --trace-out=F     write a pipeline trace of that window\n"
        "  --trace-format=chrome|konata|text (default: chrome)\n"
        "  --quiet           warnings and results only\n"
        "  -v                verbose (debug-level) logging\n",
        prog);
}

[[noreturn]] void
usageError(const char *prog, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", prog, msg.c_str());
    printUsage(prog);
    std::exit(2);
}

std::uint64_t
parseNumber(const char *prog, const std::string &arg,
            std::size_t prefix_len,
            std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const std::optional<std::uint64_t> n =
        parseUnsigned(arg.substr(prefix_len), max);
    if (!n)
        usageError(prog, "invalid value in '" + arg +
                             "' (expected a number no larger than " +
                             std::to_string(max) + ")");
    return *n;
}

/** "still fails the same way" for campaign failures: the shrunk
 *  program must reproduce the same failure kind on the same profile
 *  (checked alone, so minimization stays cheap). */
FailurePredicate
makeDiffPredicate(const FuzzFailure &fail, const FuzzParams &campaign)
{
    FuzzParams p = campaign;
    p.profiles = {fail.profile};
    return [p, fail](const Program &candidate) {
        const SeedOutcome out = fuzzProgram(candidate, fail.seed, p);
        for (const FuzzFailure &f : out.failures) {
            if (f.kind == fail.kind)
                return true;
        }
        return false;
    };
}

/** Predicate for injection repros: the shrunk program must still (a)
 *  halt cleanly and match the oracle on the target profile — corpus
 *  replay runs it uncorrupted and expects green — and (b) reach
 *  pipeline state where the corruption applies and trips the expected
 *  invariant family. */
FailurePredicate
makeInjectPredicate(Profile profile, FuzzCorruption kind,
                    Cycle inject_cycle)
{
    FuzzParams quick;
    quick.profiles = {profile};
    quick.checkInvariants = true;
    quick.compareTaint = false;
    return [profile, kind, inject_cycle,
            quick](const Program &candidate) {
        const SeedOutcome clean = fuzzProgram(candidate, 0, quick);
        if (clean.skipped || !clean.failures.empty())
            return false;
        const InjectionOutcome out =
            runWithInjection(candidate, profile, kind, inject_cycle);
        if (!out.applied)
            return false;
        const InvariantKind expected = expectedInvariant(kind);
        for (InvariantKind k : out.kinds) {
            if (k == expected)
                return true;
        }
        return false;
    };
}

int
runInjectMode(Profile profile, FuzzCorruption kind,
              std::uint64_t seed, Cycle inject_cycle, bool minimize,
              const std::string &corpus_dir)
{
    const Program prog = generateRandomProgram(seed, paramsForSeed(seed));
    const InjectionOutcome out =
        runWithInjection(prog, profile, kind, inject_cycle);

    std::printf("inject %s on '%s' (seed %llu, cycle >= %llu): ",
                fuzzCorruptionName(kind), profileName(profile),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(inject_cycle));
    if (!out.applied) {
        std::printf("corruption never applied\n");
        return 1;
    }
    std::printf("%llu violation(s)\n",
                static_cast<unsigned long long>(out.violations));
    if (!out.firstViolation.empty())
        std::printf("  first: %s\n", out.firstViolation.c_str());

    const InvariantKind expected = expectedInvariant(kind);
    bool caught = false;
    for (InvariantKind k : out.kinds)
        caught = caught || k == expected;
    if (!caught) {
        std::printf("  NOT caught by expected invariant '%s'\n",
                    invariantKindName(expected));
        return 1;
    }
    std::printf("  caught by expected invariant '%s'\n",
                invariantKindName(expected));

    if (minimize) {
        MinimizeStats stats;
        const Program small = minimizeProgram(
            prog, makeInjectPredicate(profile, kind, inject_cycle),
            &stats);
        std::printf("  minimized: %u -> %u ops (%u candidates)\n",
                    stats.opsBefore, stats.opsAfter,
                    stats.candidatesTried);
        const std::string path = writeCorpusEntry(
            corpus_dir, std::string("inject-") + fuzzCorruptionName(kind),
            seed, small,
            {std::string("minimized repro: corruption '") +
                 fuzzCorruptionName(kind) + "' injected on profile '" +
                 profileName(profile) + "' trips invariant '" +
                 invariantKindName(expected) + "'",
             "replays clean (uncorrupted) on every profile"});
        std::printf("  corpus: %s\n", path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzParams params;
    params.jobs = ThreadPool::defaultConcurrency();
    logVerbosity = std::max(logVerbosity, 1);
    BenchObs obs;
    bool minimize = false;
    std::string corpus_dir = "tests/corpus";
    bool inject = false;
    FuzzCorruption inject_kind = FuzzCorruption::kNone;
    std::uint64_t inject_seed = 1;
    Cycle inject_cycle = 2000;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (obs.parseArg(arg, argv[0])) {
            continue;
        } else if (arg.rfind("--runs=", 0) == 0) {
            params.runs = parseNumber(argv[0], arg, 7);
        } else if (arg.rfind("--seed0=", 0) == 0) {
            params.seed0 = parseNumber(argv[0], arg, 8);
        } else if (arg.rfind("--jobs=", 0) == 0) {
            params.jobs = static_cast<unsigned>(
                parseNumber(argv[0], arg, 7, kUnsignedMax));
            if (params.jobs == 0)
                params.jobs = ThreadPool::defaultConcurrency();
        } else if (arg.rfind("--profile=", 0) == 0) {
            Profile profile;
            if (!profileByName(arg.substr(10), profile))
                usageError(argv[0], "unknown profile in '" + arg + "'");
            params.profiles.push_back(profile);
        } else if (arg.rfind("--mshr=", 0) == 0) {
            params.mshrEntries = static_cast<unsigned>(
                parseNumber(argv[0], arg, 7, kUnsignedMax));
        } else if (arg == "--no-dift") {
            params.compareTaint = false;
        } else if (arg == "--no-invariants") {
            params.checkInvariants = false;
        } else if (arg == "--minimize") {
            minimize = true;
        } else if (arg.rfind("--corpus-dir=", 0) == 0) {
            corpus_dir = arg.substr(13);
        } else if (arg.rfind("--inject=", 0) == 0) {
            inject = true;
            inject_kind = fuzzCorruptionFromName(arg.substr(9));
            if (inject_kind == FuzzCorruption::kNone) {
                usageError(argv[0],
                           "unknown corruption kind in '" + arg + "'");
            }
        } else if (arg.rfind("--inject-seed=", 0) == 0) {
            inject_seed = parseNumber(argv[0], arg, 14);
        } else if (arg.rfind("--inject-cycle=", 0) == 0) {
            inject_cycle = parseNumber(argv[0], arg, 15);
        } else if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            return 0;
        } else {
            usageError(argv[0], "unrecognized argument '" + arg + "'");
        }
    }

    if (inject) {
        const Profile profile = params.profiles.empty()
                                    ? Profile::kStrict
                                    : params.profiles.front();
        return runInjectMode(profile, inject_kind, inject_seed,
                             inject_cycle, minimize, corpus_dir);
    }

    ScopedTimer campaign_timer(obs.timings, "campaign");
    const FuzzResult result = runFuzz(
        params, [](std::size_t done, std::size_t total) {
            if (logVerbosity < 1)
                return;
            std::fprintf(stderr, "\r  %zu/%zu seeds", done, total);
            if (done == total)
                std::fprintf(stderr, "\n");
        });
    campaign_timer.stop();

    std::printf("fuzz: %llu executed, %llu skipped, fingerprint "
                "%016llx\n",
                static_cast<unsigned long long>(result.executed),
                static_cast<unsigned long long>(result.skipped),
                static_cast<unsigned long long>(result.fingerprint));
    for (const FuzzFailure &f : result.failures) {
        std::printf("FAIL seed %llu profile '%s' [%s]: %s\n",
                    static_cast<unsigned long long>(f.seed),
                    profileName(f.profile), fuzzFailureKindName(f.kind),
                    f.detail.c_str());
    }

    if (minimize && !result.failures.empty()) {
        // One corpus entry per failing seed, keyed on its first
        // failure (later failures on the same seed are usually
        // downstream echoes of the same divergence).
        std::map<std::uint64_t, const FuzzFailure *> by_seed;
        for (const FuzzFailure &f : result.failures)
            by_seed.emplace(f.seed, &f);
        for (const auto &[seed, fail] : by_seed) {
            const Program prog =
                generateRandomProgram(seed, paramsForSeed(seed));
            MinimizeStats stats;
            const Program small = minimizeProgram(
                prog, makeDiffPredicate(*fail, params), &stats);
            const std::string path = writeCorpusEntry(
                corpus_dir,
                std::string("diff-") + fuzzFailureKindName(fail->kind),
                seed, small,
                {std::string("minimized repro: ") +
                     fuzzFailureKindName(fail->kind) + " on profile '" +
                     profileName(fail->profile) + "'",
                 fail->detail});
            std::printf("minimized seed %llu: %u -> %u ops -> %s\n",
                        static_cast<unsigned long long>(seed),
                        stats.opsBefore, stats.opsAfter, path.c_str());
        }
    }

    SampleParams sp;
    sp.baseSeed = params.seed0;
    sp.jobs = params.jobs;
    emitBenchObs(obs, "fuzz_differential", Profile::kStrict, sp,
                 [&](RunManifest &m, StatsRegistry &reg) {
                     m.set("runs", params.runs);
                     m.set("seed0", params.seed0);
                     m.set("mshr_entries",
                           static_cast<std::uint64_t>(
                               params.mshrEntries));
                     result.registerStats(reg, "fuzz");
                 });

    if (result.failures.empty()) {
        std::printf("OK\n");
        return 0;
    }
    return 1;
}
