/**
 * @file
 * Regenerates paper Figure 7: cycles-per-instruction of all ten
 * machine profiles on every workload, normalized to the insecure OoO
 * baseline, with 95% confidence intervals from SMARTS-style sampled
 * measurement (paper §6.1). Ends with the geomean row and the
 * headline gap-closure claims of the abstract.
 *
 * With --cpi-stack the same grid also carries the causal CPI-stack
 * profiler: every cell's slot decomposition is identity-checked
 * (sum of cause buckets == width x cycles, exactly), an attribution
 * table explains each profile's aggregate CPI term by term, and the
 * per-cell stacks export as a tidy CSV (--stack-csv=) plus a
 * flamegraph-ready collapsed-stack file (--stack-out=).
 */

#include <cstdio>
#include <map>
#include <memory>

#include "bench_common.hh"
#include "harness/csv.hh"
#include "common/stats_util.hh"
#include "harness/table_printer.hh"
#include "obs/json_writer.hh"

using namespace nda;

int
main(int argc, char **argv)
{
    BenchObs obs;
    BenchCkpt ckpt;
    std::string csv_path;
    std::string stack_csv_path;
    std::string stack_out_path;
    GridSpec spec = parseBenchArgs(
        argc, argv,
        {"--csv=", "--stack-csv=", "--stack-out=", BenchCkpt::kUsageDir,
         BenchCkpt::kUsageMaxBytes, BenchCkpt::kUsageNoCkpt},
        &obs, &ckpt, kCliMshr | kCliSmt,
        [&](const std::string &arg, std::string &) {
            if (arg.rfind("--csv=", 0) == 0)
                csv_path = arg.substr(6);
            else if (arg.rfind("--stack-csv=", 0) == 0)
                stack_csv_path = arg.substr(12);
            else if (arg.rfind("--stack-out=", 0) == 0)
                stack_out_path = arg.substr(12);
            else
                return false;
            return true;
        });
    SampleParams &sp = spec.params;
    // The stack exports are meaningless without the profiler; asking
    // for one opts the grid in rather than silently emitting zeros.
    if (!stack_csv_path.empty() || !stack_out_path.empty())
        sp.cpiStack = true;
    printBanner("Figure 7: normalized CPI, all profiles x all "
                "workloads (95% CI over " +
                std::to_string(sp.samples) + " samples, " +
                std::to_string(sp.jobs) + " jobs)");

    const auto workloads = spec.makeWorkloads();
    const std::vector<Profile> &profiles = spec.profiles;

    // The whole figure is one grid of independent windows — run them
    // all concurrently, then format from the reduced cells.
    GridStats grid_stats;
    const std::vector<RunResult> grid =
        runBenchGrid(spec, workloads, obs, &ckpt, &grid_stats);

    std::vector<std::string> headers{"workload"};
    for (Profile p : profiles)
        headers.push_back(profileName(p));
    TablePrinter table(headers);

    std::unique_ptr<CsvWriter> csv;
    if (!csv_path.empty()) {
        csv = std::make_unique<CsvWriter>(csv_path);
        std::vector<std::string> hdr{"workload"};
        for (Profile p : profiles) {
            hdr.push_back(profileName(p));
            hdr.push_back(std::string(profileName(p)) + "_ci95");
        }
        csv->row(hdr);
    }
    std::map<Profile, std::vector<double>> norm;
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        const auto &w = workloads[wi];
        std::vector<std::string> row{w->name()};
        std::vector<std::string> csv_row{w->name()};
        double base_cpi = 0.0;
        for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
            const Profile p = profiles[pi];
            const RunResult &r = grid[wi * profiles.size() + pi];
            if (p == Profile::kOoo)
                base_cpi = r.mean.cpi;
            const double rel = r.mean.cpi / base_cpi;
            norm[p].push_back(rel);
            char cell[64];
            std::snprintf(cell, sizeof(cell), "%.2f±%.2f", rel,
                          r.cpiCi95 / base_cpi);
            row.push_back(cell);
            csv_row.push_back(CsvWriter::num(rel, 4));
            csv_row.push_back(CsvWriter::num(r.cpiCi95 / base_cpi, 4));
        }
        table.addRow(row);
        if (csv)
            csv->row(csv_row);
    }

    std::vector<std::string> geo_row{"GEOMEAN"};
    std::map<Profile, double> geo;
    for (Profile p : profiles) {
        geo[p] = geomean(norm[p]);
        geo_row.push_back(TablePrinter::fmt(geo[p], 3));
    }
    table.addRow(geo_row);
    table.print();

    std::printf("\nPaper geomeans (Table 2 overhead column + text):\n"
                "  OoO 1.00, Permissive 1.107, Permissive+BR 1.223,\n"
                "  Strict 1.361, Strict+BR 1.45, Restricted Loads "
                "2.00,\n"
                "  Full Protection 2.25, In-Order ~5.4x,\n"
                "  InvisiSpec-Spectre 1.076, InvisiSpec-Future "
                "1.327.\n");

    // The abstract's headline claims.
    const double in_order = geo[Profile::kInOrder];
    const double perm_br = geo[Profile::kPermissiveBr];
    const double full = geo[Profile::kFullProtection];
    const double gap = in_order - 1.0;
    std::printf("\nHeadline claims (paper -> measured):\n");
    std::printf("  Permissive+BR closes 96%% of the in-order/OoO gap "
                "-> %.0f%%\n",
                100.0 * (in_order - perm_br) / gap);
    std::printf("  Full protection closes 68%% of the gap -> %.0f%%\n",
                100.0 * (in_order - full) / gap);
    std::printf("  Permissive+BR is 4.8x faster than in-order -> "
                "%.1fx\n",
                in_order / perm_br);
    std::printf("  Full protection is 2.4x faster than in-order -> "
                "%.1fx\n",
                in_order / full);

    // ---- CPI-stack attribution (--cpi-stack) -------------------------
    std::string stacks_json;
    if (sp.cpiStack) {
        // Pooled attribution per profile: the figure's bars,
        // explained.
        const std::vector<PooledCpiStack> pooled =
            pooledCpiStacks(grid, profiles.size());
        std::printf("\nCPI attribution (cycles/inst, workloads "
                    "pooled; columns sum to pooled CPI):\n");
        std::vector<std::string> shdr{"cause"};
        for (Profile p : profiles)
            shdr.push_back(profileName(p));
        TablePrinter stack_table(shdr);
        for (int c = 0; c < kNumStallCauses; ++c) {
            bool any = false;
            for (std::size_t pi = 0; pi < profiles.size(); ++pi)
                any = any || pooled[pi].contrib[c] > 0.0;
            if (!any)
                continue;
            std::vector<std::string> row{
                stallCauseName(static_cast<StallCause>(c))};
            for (std::size_t pi = 0; pi < profiles.size(); ++pi)
                row.push_back(
                    TablePrinter::fmt(pooled[pi].contrib[c], 3));
            stack_table.addRow(row);
        }
        std::vector<std::string> cpi_row{"CPI (sum)"};
        for (std::size_t pi = 0; pi < profiles.size(); ++pi)
            cpi_row.push_back(TablePrinter::fmt(pooled[pi].cpi, 3));
        stack_table.addRow(cpi_row);
        stack_table.print();

        // Per-cell exports: a tidy per-(cell, cause) CSV for external
        // pivoting (every cause, zeros included, so a consumer can
        // re-check the slot identity from the file alone), collapsed
        // hotspot stacks for flamegraph.pl/speedscope, and compact
        // JSON stacks for the run manifest.
        std::unique_ptr<CsvWriter> scsv;
        if (!stack_csv_path.empty()) {
            scsv = std::make_unique<CsvWriter>(stack_csv_path);
            scsv->row({"workload", "profile", "width", "cycles", "insts",
                       "cause", "slots", "slot_frac", "cpi_contrib"});
        }
        std::string folded;
        JsonWriter jw(false);
        jw.beginArray();
        for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
            for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
                const RunResult &r = grid[wi * profiles.size() + pi];
                const std::string &wname = workloads[wi]->name();
                const char *pname = profileName(profiles[pi]);
                // Every cell must close the slot identity exactly — the
                // aggregated mean keeps slotStack and cycles as sums
                // over samples, so any residue is an attribution bug,
                // not rounding.
                std::uint64_t accounted = 0;
                for (const std::uint64_t slots : r.mean.slotStack)
                    accounted += slots;
                const std::uint64_t total =
                    static_cast<std::uint64_t>(r.mean.slotWidth) *
                    r.mean.cycles;
                NDA_ASSERT(accounted == total,
                           "CPI-stack identity broken on %s x %s: "
                           "%llu accounted != %llu slots",
                           wname.c_str(), pname,
                           static_cast<unsigned long long>(accounted),
                           static_cast<unsigned long long>(total));

                const double den =
                    static_cast<double>(r.mean.slotWidth) *
                    static_cast<double>(r.mean.instructions);
                for (int c = 0; scsv && c < kNumStallCauses; ++c) {
                    const double slots =
                        static_cast<double>(r.mean.slotStack[c]);
                    scsv->row(
                        {wname, pname, std::to_string(r.mean.slotWidth),
                         std::to_string(r.mean.cycles),
                         std::to_string(r.mean.instructions),
                         stallCauseName(static_cast<StallCause>(c)),
                         std::to_string(r.mean.slotStack[c]),
                         CsvWriter::num(
                             total ? slots / static_cast<double>(total)
                                   : 0.0,
                             6),
                         CsvWriter::num(den ? slots / den : 0.0, 6)});
                }

                HotspotProfiler hp;
                for (const HotspotEntry &e : r.mean.hotspots)
                    hp.mergeEntry(e);
                folded += hp.renderCollapsed(wname + ";" + pname);

                jw.beginObject();
                jw.key("workload");
                jw.value(wname);
                jw.key("profile");
                jw.value(pname);
                jw.key("width");
                jw.value(r.mean.slotWidth);
                jw.key("cycles");
                jw.value(r.mean.cycles);
                jw.key("insts");
                jw.value(r.mean.instructions);
                jw.key("slots");
                jw.beginObject();
                for (int c = 0; c < kNumStallCauses; ++c) {
                    if (!r.mean.slotStack[c])
                        continue;
                    jw.key(stallCauseStatName(
                        static_cast<StallCause>(c)));
                    jw.value(r.mean.slotStack[c]);
                }
                jw.endObject();
                jw.endObject();
            }
        }
        jw.endArray();
        stacks_json = jw.str();
        if (scsv)
            NDA_INFORM("wrote %s", stack_csv_path.c_str());
        if (!stack_out_path.empty())
            writeBenchFile(stack_out_path, folded);
    }

    emitBenchObs(obs, "fig07_cpi", Profile::kStrict, sp,
                 [&](RunManifest &m, StatsRegistry &reg) {
                     m.set("mshr_entries", static_cast<std::uint64_t>(
                                               spec.mshrEntries));
                     m.set("geomean_strict", geo[Profile::kStrict]);
                     m.set("geomean_in_order", in_order);
                     m.set("geomean_full_protection", full);
                     if (!stacks_json.empty())
                         m.setRaw("grid_cpi_stacks", stacks_json);
                     grid_stats.registerStats(reg, "harness");
                 });
    return 0;
}
