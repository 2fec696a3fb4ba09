/**
 * @file
 * Regenerates paper Figure 9 (aggregated statistics over the suite):
 *   9a  cycle breakdown: commit / memory stalls / backend stalls /
 *       frontend stalls, normalized to baseline OoO cycles
 *   9b  memory-level parallelism (Chou et al. definition)
 *   9c  instruction-level parallelism
 *   9d  dispatch-to-issue latency
 *   9e  CPI sensitivity to 0/1/2 cycles of extra NDA broadcast delay
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/stats_util.hh"
#include "harness/table_printer.hh"

using namespace nda;

namespace {

struct ProfileAgg {
    double cycles = 0; // vs OoO
    double commit = 0, mem = 0, backend = 0, frontend = 0;
    std::vector<double> mlps, ilps;
    double d2i = 0;
    int n = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    BenchObs obs;
    GridSpec spec = parseBenchArgs(argc, argv, {}, &obs);
    // Fig 9 uses one window per (workload, profile) cell at the base
    // seed; the whole grid runs concurrently on the spec's jobs lanes.
    spec.params.samples = 1;
    spec.profiles = ndaProfiles();
    const SampleParams &one = spec.params;
    const std::vector<Profile> &profiles = spec.profiles;
    const auto workloads = spec.makeWorkloads();
    const std::vector<RunResult> grid = runBenchGrid(spec, workloads, obs);

    std::vector<ProfileAgg> agg(profiles.size());
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        double base_cycles = 0;
        for (std::size_t i = 0; i < profiles.size(); ++i) {
            const WindowStats &s =
                grid[wi * profiles.size() + i].mean;
            const auto cyc = static_cast<double>(s.cycles);
            if (profiles[i] == Profile::kOoo)
                base_cycles = cyc;
            ProfileAgg &a = agg[i];
            a.cycles += cyc / base_cycles;
            a.commit += s.commitFrac * cyc / base_cycles;
            a.mem += s.memStallFrac * cyc / base_cycles;
            a.backend += s.backendStallFrac * cyc / base_cycles;
            a.frontend += s.frontendStallFrac * cyc / base_cycles;
            a.mlps.push_back(std::max(s.mlp, 0.01));
            a.ilps.push_back(std::max(s.ilp, 0.01));
            a.d2i += s.dispatchToIssue;
            ++a.n;
        }
    }

    printBanner("Figure 9a: cycle breakdown (normalized to OoO "
                "cycles; avg over workloads)");
    TablePrinter t9a({"profile", "total", "commit", "mem stalls",
                      "backend stalls", "frontend stalls"});
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const ProfileAgg &a = agg[i];
        const double n = a.n;
        t9a.addRow({profileName(profiles[i]),
                    TablePrinter::fmt(a.cycles / n, 2),
                    TablePrinter::fmt(a.commit / n, 2),
                    TablePrinter::fmt(a.mem / n, 2),
                    TablePrinter::fmt(a.backend / n, 2),
                    TablePrinter::fmt(a.frontend / n, 2)});
    }
    t9a.print();
    std::printf("Paper: NDA policies extend commit and backend-stall "
                "cycles;\nfrontend stalls contribute only ~2%% of the "
                "difference.\n");

    printBanner("Figure 9b/9c: MLP and ILP geomeans");
    TablePrinter t9bc({"profile", "MLP", "ILP"});
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        t9bc.addRow({profileName(profiles[i]),
                     TablePrinter::fmt(geomean(agg[i].mlps), 2),
                     TablePrinter::fmt(geomean(agg[i].ilps), 2)});
    }
    t9bc.print();
    std::printf("Paper: NDA MLP/ILP stay close to OoO and well above "
                "the\nin-order core, where neither can exceed 1.0.\n");

    printBanner("Figure 9d: mean dispatch-to-issue latency (cycles)");
    TablePrinter t9d({"profile", "dispatch-to-issue"});
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        if (profiles[i] == Profile::kInOrder)
            continue;
        t9d.addRow({profileName(profiles[i]),
                    TablePrinter::fmt(agg[i].d2i / agg[i].n, 1)});
    }
    t9d.print();
    std::printf("Paper: NDA adds 4-39 cycles on average, but the CPI "
                "impact\nis substantially smaller.\n");

    printBanner("Figure 9e: CPI sensitivity to extra NDA broadcast "
                "delay (permissive)");
    TablePrinter t9e({"extra delay", "relative CPI"});
    {
        std::vector<SimConfig> delay_cfgs;
        for (unsigned delay : {0u, 1u, 2u}) {
            SimConfig cfg = makeProfile(Profile::kPermissive);
            cfg.security.extraBroadcastDelay = delay;
            delay_cfgs.push_back(cfg);
        }
        const std::vector<RunResult> dgrid =
            runGrid(workloads, delay_cfgs, one);
        double base = 0;
        for (std::size_t d = 0; d < delay_cfgs.size(); ++d) {
            std::vector<double> rel;
            for (std::size_t wi = 0; wi < workloads.size(); ++wi)
                rel.push_back(
                    dgrid[wi * delay_cfgs.size() + d].mean.cpi);
            const double g = geomean(rel);
            if (d == 0)
                base = g;
            t9e.addRow({std::to_string(d) + " cycle(s)",
                        TablePrinter::fmt(g / base, 3)});
        }
    }
    t9e.print();
    std::printf("Paper: a one-cycle delay changes CPI by less than "
                "3.6%%.\n");

    emitBenchObs(obs, "fig09_breakdown", Profile::kStrict, one);
    return 0;
}
