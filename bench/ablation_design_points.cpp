/**
 * @file
 * Ablation studies of the design parameters DESIGN.md calls out —
 * each one isolates a mechanism the paper's results depend on:
 *
 *  A. trap-delivery latency — the wrong-path window Meltdown-class
 *     chosen-code attacks race against (paper §3.1/§4.3)
 *  B. BTB partial-tag width — the aliasing surface Spectre v2 needs
 *  C. retire-wake latency — the cost driver of load restriction
 *  D. front-end depth — sets the mispredict penalty and therefore
 *     the BTB covert channel's signal (paper Fig 5)
 *  E. ROB size — how NDA overheads scale with the window
 */

#include <cstdio>

#include <algorithm>

#include "attacks/attacks.hh"
#include "attacks/covert_channel.hh"
#include "core/core_factory.hh"
#include "bench_common.hh"
#include "common/stats_util.hh"
#include "harness/table_printer.hh"

using namespace nda;

namespace {

double
suiteGeomean(const SimConfig &cfg, const SampleParams &sp,
             std::initializer_list<const char *> names)
{
    std::vector<std::unique_ptr<Workload>> ws;
    for (const char *n : names)
        ws.push_back(makeWorkload(n));
    SampleParams one = sp;
    one.samples = 1;
    const std::vector<RunResult> grid =
        runGrid(ws, {cfg}, one);
    std::vector<double> cpis;
    for (const RunResult &r : grid)
        cpis.push_back(r.mean.cpi);
    return geomean(cpis);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchObs obs;
    SampleParams sp = parseBenchArgs(argc, argv, {}, &obs).params;
    sp.measureInsts = std::min<std::uint64_t>(sp.measureInsts, 50'000);
    ScopedTimer ablation_timer(obs.timings, "ablations");

    printBanner("Ablation A: trap-delivery latency vs Meltdown leak "
                "window");
    {
        TablePrinter t({"faultLatency (cycles)", "leak signal",
                        "meltdown outcome"});
        Meltdown atk;
        for (unsigned lat : {0u, 2u, 4u, 8u, 16u, 32u}) {
            SimConfig cfg = makeProfile(Profile::kOoo);
            cfg.core.faultLatency = lat;
            const AttackResult r = atk.run(cfg, 42);
            t.addRow({std::to_string(lat),
                      TablePrinter::fmt(r.signal, 1),
                      r.leaked() ? "LEAK" : "blocked"});
        }
        t.print();
        std::printf("Expected: with (near-)instant trap delivery the "
                    "transmit chain\nnever executes — the Meltdown "
                    "race needs a window.\n");
    }

    printBanner("Ablation B: BTB partial-tag width vs Spectre v2");
    {
        TablePrinter t({"tag bits", "v2 outcome"});
        SpectreV2 atk;
        for (unsigned bits : {4u, 6u, 10u, 16u}) {
            SimConfig cfg = makeProfile(Profile::kOoo);
            // Bypass the attack's own adjustConfig by setting after.
            const Program prog = atk.build(42);
            cfg.core.predictor.btb.tagBits = bits;
            auto core = makeCore(prog, cfg);
            core->run(~std::uint64_t{0}, 40'000'000);
            // Reuse the attack's evaluation by re-running via run()
            // only for the 4-bit case; for others evaluate manually.
            AttackResult r;
            r.secret = 42;
            r.threshold = atk.signalThreshold();
            std::array<double, 256> times{};
            for (int g = 0; g < 256; ++g) {
                times[g] = static_cast<double>(core->mem().read(
                    attack_layout::kResultsBase +
                        static_cast<Addr>(g) * 8, 8));
            }
            r.timings = times;
            auto sorted = times;
            std::nth_element(sorted.begin(), sorted.begin() + 128,
                             sorted.end());
            r.signal = sorted[128] - times[42];
            t.addRow({std::to_string(bits),
                      r.leaked() ? "LEAK" : "blocked"});
        }
        t.print();
        std::printf("Expected: the PoC places its trainer branch at "
                    "the 4-bit alias\ndistance; longer partial tags "
                    "break the aliasing and the attack.\n");
    }

    printBanner("Ablation C: retire-wake latency vs load-restriction "
                "cost");
    {
        TablePrinter t({"retireWakeDelay", "Restricted-Loads CPI "
                        "(rel. to delay 1)"});
        double base = 0;
        for (unsigned d : {1u, 2u, 3u, 5u}) {
            SimConfig cfg = makeProfile(Profile::kRestrictedLoads);
            cfg.core.retireWakeDelay = d;
            const double g = suiteGeomean(
                cfg, sp, {"compute", "crc", "matmul", "gametree"});
            if (d == 1)
                base = g;
            t.addRow({std::to_string(d),
                      TablePrinter::fmt(g / base, 3)});
        }
        t.print();
    }

    printBanner("Ablation D: front-end depth vs mispredict penalty "
                "(BTB channel signal)");
    {
        TablePrinter t({"frontendDelay", "BTB signal (cycles)",
                        "baseline CPI (branchy)"});
        SpectreV1Btb atk;
        for (unsigned d : {6u, 12u, 18u}) {
            SimConfig cfg = makeProfile(Profile::kOoo);
            cfg.core.frontendDelay = d;
            const AttackResult r = atk.run(cfg, 42);
            SimConfig perf_cfg = makeProfile(Profile::kOoo);
            perf_cfg.core.frontendDelay = d;
            auto w = makeWorkload("branchy");
            const double cpi =
                runWindow(*w, perf_cfg, sp.baseSeed, sp).cpi;
            t.addRow({std::to_string(d),
                      TablePrinter::fmt(r.signal, 1),
                      TablePrinter::fmt(cpi, 2)});
        }
        t.print();
        std::printf("Expected: a deeper front end raises both the "
                    "mispredict penalty\n(the covert signal, paper "
                    "Fig 5) and branchy code's CPI.\n");
    }

    printBanner("Ablation E: ROB size vs NDA overhead");
    {
        TablePrinter t({"ROB entries", "OoO CPI", "Full-Protection "
                        "CPI", "overhead"});
        for (unsigned rob : {64u, 128u, 192u, 256u}) {
            SimConfig ooo = makeProfile(Profile::kOoo);
            SimConfig full = makeProfile(Profile::kFullProtection);
            ooo.core.robEntries = full.core.robEntries = rob;
            ooo.core.numPhysRegs = full.core.numPhysRegs = rob + 64;
            const double a =
                suiteGeomean(ooo, sp, {"gametree", "compute", "crc"});
            const double c =
                suiteGeomean(full, sp, {"gametree", "compute", "crc"});
            t.addRow({std::to_string(rob), TablePrinter::fmt(a, 3),
                      TablePrinter::fmt(c, 3),
                      TablePrinter::pct(c / a - 1.0)});
        }
        t.print();
        std::printf("Expected: NDA's relative overhead grows with the "
                    "window the\nrestrictions apply to.\n");
    }

    ablation_timer.stop();
    emitBenchObs(obs, "ablation_design_points", Profile::kStrict, sp);
    return 0;
}
