/**
 * @file
 * Regenerates paper Table 2: the NDA propagation policies (rows 1-6)
 * plus the InvisiSpec comparison rows, with the threat classes each
 * defeats and the measured geomean overhead versus insecure OoO.
 *
 * With --cpi-stack each mechanism's CPI delta over the baseline is
 * decomposed by root cause (pooled over workloads), printed as a
 * table and exported with --csv= — the overhead column, explained
 * term by term with zero residue.
 */

#include <cstdio>
#include <iterator>

#include "bench_common.hh"
#include "common/stats_util.hh"
#include "harness/csv.hh"
#include "harness/table_printer.hh"

using namespace nda;

namespace {

struct RowSpec {
    Profile profile;
    const char *steeringMem; ///< control-steering (memory) column
    const char *steeringGpr; ///< control-steering (GPRs) column
    const char *chosenCode;  ///< chosen-code column
    double paperOverhead;    ///< paper's overhead vs OoO
};

} // namespace

int
main(int argc, char **argv)
{
    BenchObs obs;
    BenchCkpt ckpt;
    std::string csv_path;
    GridSpec spec = parseBenchArgs(
        argc, argv,
        {"--csv=", BenchCkpt::kUsageDir, BenchCkpt::kUsageMaxBytes,
         BenchCkpt::kUsageNoCkpt},
        &obs, &ckpt, kCliMshr | kCliSmt,
        [&](const std::string &arg, std::string &) {
            if (arg.rfind("--csv=", 0) != 0)
                return false;
            csv_path = arg.substr(6);
            return true;
        });
    const SampleParams &sp = spec.params;
    printBanner("Table 2: NDA propagation policies and the attacks "
                "they prevent (" + std::to_string(sp.jobs) + " jobs)");

    // Legend (from the paper): "all" = defeats all covert channels,
    // "no SSB" = all channels but store bypass still leaks, "partial"
    // = all channels except single-micro-op GPR attacks, "d-cache" =
    // cache-channel attacks only.
    const RowSpec rows[] = {
        {Profile::kPermissive, "yes (no SSB)", "-", "-", 0.107},
        {Profile::kPermissiveBr, "yes", "-", "-", 0.223},
        {Profile::kStrict, "yes (no SSB)", "partial", "-", 0.361},
        {Profile::kStrictBr, "yes", "partial", "-", 0.45},
        {Profile::kRestrictedLoads, "yes", "-", "yes", 1.00},
        {Profile::kFullProtection, "yes", "partial", "yes", 1.25},
        {Profile::kInvisiSpecSpectre, "d-cache only", "-", "-", 0.076},
        {Profile::kInvisiSpecFuture, "d-cache only", "-",
         "d-cache only", 0.327},
    };

    // Measure the overheads: one grid over all workloads x (baseline
    // OoO + the eight mechanism rows), every window concurrent.
    spec.profiles = {Profile::kOoo};
    for (const RowSpec &row : rows)
        spec.profiles.push_back(row.profile);
    const auto workloads = spec.makeWorkloads();
    GridStats grid_stats;
    const std::vector<RunResult> grid =
        runBenchGrid(spec, workloads, obs, &ckpt, &grid_stats);

    TablePrinter t({"mechanism", "ctrl-steer (mem)", "ctrl-steer "
                    "(GPRs)", "chosen code", "overhead (paper)",
                    "overhead (measured)"});
    const std::size_t ncfg = spec.profiles.size();
    std::vector<double> overheads;
    for (std::size_t r = 0; r < std::size(rows); ++r) {
        const RowSpec &row = rows[r];
        std::vector<double> rel;
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            const double base_cpi = grid[i * ncfg].mean.cpi;
            const double cpi = grid[i * ncfg + r + 1].mean.cpi;
            rel.push_back(cpi / base_cpi);
        }
        const double overhead = geomean(rel) - 1.0;
        overheads.push_back(overhead);
        t.addRow({profileName(row.profile), row.steeringMem,
                  row.steeringGpr, row.chosenCode,
                  TablePrinter::pct(row.paperOverhead),
                  TablePrinter::pct(overhead)});
    }
    t.print();

    // ---- CPI-delta attribution (--cpi-stack) -------------------------
    // Pooled per-config decomposition: the per-cause deltas of each
    // mechanism vs the baseline sum *exactly* to its pooled CPI delta.
    std::vector<PooledCpiStack> pooled;
    if (sp.cpiStack) {
        pooled = pooledCpiStacks(grid, ncfg);
        std::printf("\nCPI-delta attribution vs OoO (cycles/inst, "
                    "workloads pooled;\ncolumns sum to the pooled CPI "
                    "delta):\n");
        std::vector<std::string> dhdr{"cause"};
        for (const RowSpec &row : rows)
            dhdr.push_back(profileName(row.profile));
        TablePrinter dt(dhdr);
        for (int c = 0; c < kNumStallCauses; ++c) {
            bool any = false;
            for (std::size_t r = 0; r < std::size(rows); ++r)
                any = any ||
                      pooled[r + 1].contrib[c] != pooled[0].contrib[c];
            if (!any)
                continue;
            std::vector<std::string> drow{
                stallCauseName(static_cast<StallCause>(c))};
            for (std::size_t r = 0; r < std::size(rows); ++r)
                drow.push_back(TablePrinter::fmt(
                    pooled[r + 1].contrib[c] - pooled[0].contrib[c], 3));
            dt.addRow(drow);
        }
        std::vector<std::string> dsum{"dCPI (sum)"};
        for (std::size_t r = 0; r < std::size(rows); ++r)
            dsum.push_back(
                TablePrinter::fmt(pooled[r + 1].cpi - pooled[0].cpi, 3));
        dt.addRow(dsum);
        dt.print();
    }

    if (!csv_path.empty()) {
        CsvWriter csv(csv_path);
        std::vector<std::string> hdr{"mechanism", "overhead_paper",
                                     "overhead_measured"};
        if (sp.cpiStack) {
            hdr.push_back("pooled_cpi");
            hdr.push_back("delta_cpi");
            for (int c = 0; c < kNumStallCauses; ++c)
                hdr.push_back(std::string("delta_") +
                              stallCauseStatName(
                                  static_cast<StallCause>(c)));
        }
        csv.row(hdr);
        for (std::size_t r = 0; r < std::size(rows); ++r) {
            std::vector<std::string> line{
                profileName(rows[r].profile),
                CsvWriter::num(rows[r].paperOverhead, 4),
                CsvWriter::num(overheads[r], 4)};
            if (sp.cpiStack) {
                line.push_back(CsvWriter::num(pooled[r + 1].cpi, 6));
                line.push_back(
                    CsvWriter::num(pooled[r + 1].cpi - pooled[0].cpi, 6));
                for (int c = 0; c < kNumStallCauses; ++c)
                    line.push_back(CsvWriter::num(
                        pooled[r + 1].contrib[c] - pooled[0].contrib[c],
                        6));
            }
            csv.row(line);
        }
        NDA_INFORM("wrote %s", csv_path.c_str());
    }

    std::printf("\nNotes: overheads are geomean CPI increases vs "
                "insecure OoO over\nthe 16-kernel suite (SPEC 2017 "
                "substitute; see DESIGN.md section 4).\nBypass "
                "Restriction adds little here because split "
                "store-address\nmicro-ops resolve quickly in these "
                "kernels; see EXPERIMENTS.md.\n");

    emitBenchObs(obs, "table02_overheads", Profile::kStrict, sp,
                 [&](RunManifest &m, StatsRegistry &reg) {
                     m.set("mshr_entries", static_cast<std::uint64_t>(
                                               spec.mshrEntries));
                     grid_stats.registerStats(reg, "harness");
                 });
    return 0;
}
