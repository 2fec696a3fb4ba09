/**
 * @file
 * Policy explorer: run any workload kernel under any combination of
 * NDA knobs and print the full statistics panel — the tool you reach
 * for when exploring the security/performance design space beyond the
 * six named policies (paper §5's "design space of NDA variants").
 *
 *   ./build/examples/policy_explorer [workload] [options]
 *     --propagation=none|permissive|strict
 *     --br                 enable Bypass Restriction
 *     --load-restriction   enable load restriction
 *     --bcast-delay=N      extra NDA broadcast latency (Fig 9e)
 *     --invisispec=off|spectre|future
 *     --inorder            use the in-order baseline core
 *     --insts=N            measured instructions (default 100000)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "harness/grid_spec.hh"
#include "harness/runner.hh"
#include "harness/table_printer.hh"

using namespace nda;

int
main(int argc, char **argv)
{
    std::string workload_name = "mixed";
    SimConfig cfg;
    cfg.name = "custom";
    SampleParams sp;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        // Numeric value of a --flag=N argument, capped at `max`.
        const auto number = [&arg](std::uint64_t max) {
            const std::optional<std::uint64_t> n =
                parseUnsigned(arg.substr(arg.find('=') + 1), max);
            if (!n) {
                std::fprintf(stderr, "invalid value in %s\n", arg.c_str());
                std::exit(2);
            }
            return *n;
        };
        if (arg.rfind("--", 0) != 0) {
            workload_name = arg;
        } else if (arg == "--br") {
            cfg.security.bypassRestriction = true;
        } else if (arg == "--load-restriction") {
            cfg.security.loadRestriction = true;
        } else if (arg == "--inorder") {
            cfg.inOrder = true;
        } else if (arg.rfind("--propagation=", 0) == 0) {
            const std::string v = arg.substr(14);
            cfg.security.propagation =
                v == "strict"       ? NdaPolicy::kStrict
                : v == "permissive" ? NdaPolicy::kPermissive
                                    : NdaPolicy::kNone;
        } else if (arg.rfind("--invisispec=", 0) == 0) {
            const std::string v = arg.substr(13);
            cfg.security.invisiSpec =
                v == "spectre"  ? InvisiSpecMode::kSpectre
                : v == "future" ? InvisiSpecMode::kFuture
                                : InvisiSpecMode::kOff;
        } else if (arg.rfind("--bcast-delay=", 0) == 0) {
            cfg.security.extraBroadcastDelay = static_cast<unsigned>(
                number(std::numeric_limits<unsigned>::max()));
        } else if (arg.rfind("--insts=", 0) == 0) {
            sp.measureInsts =
                number(std::numeric_limits<std::uint64_t>::max());
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return 2;
        }
    }

    auto workload = makeWorkload(workload_name);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'; available:\n",
                     workload_name.c_str());
        for (const auto &w : makeAllWorkloads())
            std::fprintf(stderr, "  %-10s (%s)\n", w->name().c_str(),
                         w->specAnalog().c_str());
        return 2;
    }

    std::printf("workload : %s (substitutes %s)\n",
                workload->name().c_str(),
                workload->specAnalog().c_str());
    std::printf("security : %s%s\n", describe(cfg.security).c_str(),
                cfg.inOrder ? " (in-order core)" : "");

    const WindowStats s = runWindow(*workload, cfg, 1, sp);

    TablePrinter t({"metric", "value"});
    t.addRow({"CPI", TablePrinter::fmt(s.cpi, 3)});
    t.addRow({"IPC", TablePrinter::fmt(1.0 / s.cpi, 3)});
    t.addRow({"MLP", TablePrinter::fmt(s.mlp, 2)});
    t.addRow({"ILP", TablePrinter::fmt(s.ilp, 2)});
    t.addRow({"dispatch-to-issue (cycles)",
              TablePrinter::fmt(s.dispatchToIssue, 1)});
    t.addRow({"branch mispredict rate",
              TablePrinter::pct(s.condMispredictRate)});
    t.addRow({"commit cycles", TablePrinter::pct(s.commitFrac)});
    t.addRow({"memory-stall cycles",
              TablePrinter::pct(s.memStallFrac)});
    t.addRow({"backend-stall cycles",
              TablePrinter::pct(s.backendStallFrac)});
    t.addRow({"frontend-stall cycles",
              TablePrinter::pct(s.frontendStallFrac)});
    t.addRow({"instructions", std::to_string(s.instructions)});
    t.addRow({"cycles", std::to_string(s.cycles)});
    t.print();
    return 0;
}
