/**
 * @file
 * Reference for runGrid's shared-checkpoint schedule: every
 * (workload, config, sample) window run on its own through runWindow
 * with no checkpoint, so each window pays its own fast-forward, then
 * each cell reduced with aggregateWindows. Seeds and offsets follow
 * runGrid: sample s uses seed baseSeed + s at offset fastforwardInsts,
 * or, under chained sampling, seed baseSeed at offset
 * fastforwardInsts x (s+1).
 */

#ifndef NDASIM_TESTS_GRID_REFERENCE_HH
#define NDASIM_TESTS_GRID_REFERENCE_HH

#include <memory>
#include <vector>

#include "harness/runner.hh"
#include "workloads/workload.hh"

namespace nda {

/** Cells in runGrid's row-major order; `stats`, if set, accumulates
 *  every window's harness-side work. */
inline std::vector<RunResult>
perWindowGrid(const std::vector<std::unique_ptr<Workload>> &workloads,
              const std::vector<SimConfig> &configs, const SampleParams &p,
              GridStats *stats = nullptr)
{
    std::vector<RunResult> cells;
    for (const auto &w : workloads) {
        for (const SimConfig &cfg : configs) {
            std::vector<WindowStats> windows;
            for (unsigned s = 0; s < p.samples; ++s) {
                SampleParams q = p;
                std::uint64_t seed = p.baseSeed + s;
                if (p.chainSamples) {
                    q.fastforwardInsts = p.fastforwardInsts * (s + 1);
                    seed = p.baseSeed;
                }
                WindowWork work;
                windows.push_back(
                    runWindow(*w, cfg, seed, q, nullptr, &work));
                if (stats)
                    stats->accumulate(work);
            }
            cells.push_back(aggregateWindows(windows));
        }
    }
    return cells;
}

} // namespace nda

#endif // NDASIM_TESTS_GRID_REFERENCE_HH
