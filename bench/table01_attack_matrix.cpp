/**
 * @file
 * Regenerates paper Table 1 (attack taxonomy: access method and
 * covert channel) and extends it with the empirical leak/block
 * outcome of every implemented attack against every machine profile —
 * the matrix Table 2's security columns summarize.
 *
 * Every cell carries a dual verdict: the *timing* verdict (did the
 * covert-channel receiver recover the secret byte?) and the *DIFT
 * oracle* verdict (did tainted data reach a persistent structure from
 * the wrong path?). The two are independent detectors of the same
 * event, so they must agree; `--oracle` turns any disagreement into a
 * nonzero exit for CI.
 *
 * Cells are independent simulations, so the sweep fans out over the
 * shared ThreadPool (`--jobs=N`); each task constructs its own attack
 * instance and core, and writes into a pre-sized slot, keeping the
 * output bit-identical for any job count.
 */

#include <atomic>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "attacks/attack_registry.hh"
#include "bench_common.hh"
#include "common/thread_pool.hh"
#include "harness/profiles.hh"
#include "harness/table_printer.hh"

using namespace nda;

namespace {

/** Outcome of one (attack, profile) cell. */
struct CellResult {
    bool timingLeak = false;
    bool oracleLeak = false;
    bool expectBlocked = false;
};

} // namespace

int
main(int argc, char **argv)
{
    bool oracle_strict = false;
    // --oracle: fail (exit 1) if the timing and DIFT-oracle verdicts
    // disagree on any cell. --smt=1 restricts the matrix to the
    // single-thread rows, --smt=2 to the cross-thread (co-resident
    // attacker) rows; without the flag every attack runs. Cross-thread
    // attacks pick their own thread count in adjustConfig, so the flag
    // selects rows rather than reconfiguring cores.
    unsigned smt = 0;
    BenchObs obs;
    const auto own = [&](const std::string &arg, std::string &error) {
        if (arg == "--oracle") {
            oracle_strict = true;
        } else if (arg.rfind("--smt=", 0) == 0) {
            const std::optional<std::uint64_t> n = parseUnsigned(
                arg.substr(6), std::numeric_limits<unsigned>::max());
            smt = static_cast<unsigned>(n.value_or(0));
            if (!n)
                error = "invalid value in '" + arg + "'";
        } else {
            return false;
        }
        return true;
    };
    const SampleParams params =
        parseBenchArgs(argc, argv, {"--oracle", "--smt="}, &obs, nullptr,
                       0, own)
            .params;

    printBanner("Table 1: attack taxonomy");
    {
        TablePrinter t({"attack", "class", "covert channel",
                        "description"});
        for (const auto &a : makeAllAttacks()) {
            t.addRow({a->name(),
                      a->isChosenCode() ? "chosen-code"
                                        : "control-steering",
                      a->channel(), a->description()});
        }
        t.print();
    }

    // Every profile but the in-order core, which never speculates.
    std::vector<Profile> profiles = allProfiles();
    std::erase(profiles, Profile::kInOrder);
    std::vector<std::string> attack_names;
    for (const auto &a : makeAllAttacks()) {
        if (smt == 1 && a->crossThread())
            continue;
        if (smt >= 2 && !a->crossThread())
            continue;
        attack_names.push_back(a->name());
    }

    const std::size_t cols = profiles.size();
    const std::size_t cells = attack_names.size() * cols;
    std::vector<CellResult> results(cells);

    // Each cell builds its own attack + core, so cells only share the
    // pre-sized result slots.
    std::atomic<std::size_t> done{0};
    ScopedTimer matrix_timer(obs.timings, "attack-matrix");
    ThreadPool pool(ThreadPool::lanesFor(params.jobs, cells));
    pool.parallelFor(cells, [&](std::size_t i) {
        const std::size_t row = i / cols;
        const Profile p = profiles[i % cols];
        auto attack = makeAttack(attack_names[row]);
        const SimConfig cfg = makeProfile(p);
        const AttackResult r = attack->run(cfg, 42);
        CellResult &cell = results[i];
        cell.timingLeak = r.leaked();
        cell.oracleLeak = r.oracle.leaked();
        cell.expectBlocked = attack->expectedBlocked(cfg.security);
        gridProgress(++done, cells);
    });
    matrix_timer.stop();

    printBanner("Empirical leak matrix (secret byte 42; "
                "timing verdict / DIFT-oracle verdict)");
    std::vector<std::string> headers{"attack"};
    for (Profile p : profiles)
        headers.push_back(profileName(p));
    TablePrinter t(headers);

    int mismatches = 0;
    int disagreements = 0;
    for (std::size_t row = 0; row < attack_names.size(); ++row) {
        std::vector<std::string> cells_text{attack_names[row]};
        for (std::size_t col = 0; col < cols; ++col) {
            const CellResult &c = results[row * cols + col];
            std::string cell = c.timingLeak ? "LEAK" : "safe";
            cell += c.oracleLeak ? "/flow" : "/clean";
            if (c.timingLeak != !c.expectBlocked) {
                cell += " (!!)";
                ++mismatches;
            }
            if (c.timingLeak != c.oracleLeak) {
                cell += " (?!)";
                ++disagreements;
            }
            cells_text.push_back(cell);
        }
        t.addRow(cells_text);
    }
    t.print();

    std::printf("\nPaper Table 2 semantics check: %d deviations.\n"
                "Expected pattern: NDA propagation blocks "
                "control-steering;\n+BR adds SSB; strict adds GPR "
                "secrets; load restriction blocks\nchosen-code; "
                "InvisiSpec blocks only the d-cache channel (the\n"
                "BTB attack defeats it).\n",
                mismatches);
    std::printf("Timing vs DIFT oracle: %d of %zu cells disagree.\n",
                disagreements, cells);

    emitBenchObs(obs, "table01_attack_matrix", Profile::kStrict,
                 params, [&](RunManifest &m, StatsRegistry &) {
                     m.set("mismatches",
                           static_cast<std::uint64_t>(mismatches));
                     m.set("oracle_disagreements",
                           static_cast<std::uint64_t>(disagreements));
                 });
    if (mismatches != 0)
        return 1;
    if (oracle_strict && disagreements != 0)
        return 1;
    return 0;
}
