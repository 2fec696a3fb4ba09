/**
 * @file
 * perfbench worker: runs ONE unit of a benchmark workload in a fresh
 * process and prints one JSON result line on stdout. The driver
 * (run.py) spawns a new worker for every repetition of every unit, so
 * no in-process memo or warm allocator carries from one timed unit to
 * the next.
 *
 * Every unit has two forms:
 *  - untraced: the public call a user makes (runGrid, a
 *    GridService request, fuzzProgram, AttackBase::run), timed as a
 *    whole;
 *  - traced: the same unit rebuilt from the public calls of each
 *    layer, with an in-memory span around each call. Its outputs must
 *    equal the untraced form's bit for bit; the driver checks that.
 *
 * Usage:
 *   perfbench_worker list
 *   perfbench_worker probe
 *   perfbench_worker grid-row KERNEL SEED TRACE
 *   perfbench_worker stride-build KERNEL SEED DIR TRACE
 *   perfbench_worker stride-request KERNEL SEED DIR|- TRACE
 *   perfbench_worker fuzz-seed SEED TRACE
 *   perfbench_worker attack-cell ATTACK PROFILE_INDEX SECRET TRACE
 *
 * Result line keys: ready_ns (CLOCK_MONOTONIC when the unit's inputs
 * were ready), unit_ns (the unit's host time), heap_peak_bytes (peak of
 * live operator-new memory),
 * out (the unit's outputs, compared by the driver), counts (exact
 * work counts), spans (traced form only: [name, start_ns, end_ns,
 * parent index]).
 */

#include <malloc.h>
#include <time.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attacks/attack_registry.hh"
#include "ckpt/checkpoint_store.hh"
#include "core/core_factory.hh"
#include "core/snapshot.hh"
#include "dift/taint_engine.hh"
#include "fuzz/differential_fuzzer.hh"
#include "harness/csv.hh"
#include "harness/grid_service.hh"
#include "harness/profiles.hh"
#include "harness/runner.hh"
#include "isa/random_program.hh"
#include "obs/json_writer.hh"
#include "workloads/workload.hh"

using namespace nda;

namespace {

// --- Heap accounting --------------------------------------------------------
//
// Peak live bytes allocated through operator new. Peak RSS would be the
// obvious memory figure, but on the benchmark host it jumps between two
// levels about 6 MiB apart for the same unit and inputs; the heap peak
// is exact, so a change in what the simulator allocates shows as such.

std::atomic<std::size_t> g_heapLive{0};
std::atomic<std::size_t> g_heapPeak{0};

void *
countedAlloc(std::size_t n)
{
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    const std::size_t size = malloc_usable_size(p);
    const std::size_t live =
        g_heapLive.fetch_add(size, std::memory_order_relaxed) + size;
    std::size_t peak = g_heapPeak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_heapPeak.compare_exchange_weak(peak, live,
                                             std::memory_order_relaxed)) {
    }
    return p;
}

void
countedFree(void *p) noexcept
{
    if (!p)
        return;
    g_heapLive.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
    std::free(p);
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }

namespace {

// --- Unit recipes ---------------------------------------------------------

/** The golden fig07 smoke grid (tests/golden/fig07_grid_smoke.csv):
 *  fig07_cpi --samples=2 --warmup=2000 --insts=5000
 *  --fastforward=50000, one unit per kernel row. */
SampleParams
smokeParams(std::uint64_t seed)
{
    SampleParams p;
    p.fastforwardInsts = 50'000;
    p.warmupInsts = 2'000;
    p.measureInsts = 5'000;
    p.samples = 2;
    p.baseSeed = seed;
    p.jobs = 1;
    return p;
}

/** warm-stride: a chained long-stride sweep of one large-image
 *  kernel on two profiles, served from a checkpoint corpus. */
constexpr std::uint64_t kStride = 4'000'000;
constexpr unsigned kStrideSamples = 2;
constexpr std::uint64_t kStrideWarmup = 2'000;
constexpr std::uint64_t kStrideMeasure = 5'000;
const std::vector<Profile> kStrideProfiles = {Profile::kOoo,
                                              Profile::kStrict};

std::string
strideRequestLine(const std::string &kernel, std::uint64_t seed)
{
    std::string profiles;
    for (Profile p : kStrideProfiles) {
        profiles += profiles.empty() ? "" : ",";
        profiles += std::string("\"") + profileName(p) + "\"";
    }
    return "{\"id\":\"perfbench\",\"workloads\":[\"" + kernel +
           "\"],\"profiles\":[" + profiles +
           "],\"fastforward\":" + std::to_string(kStride) +
           ",\"chain\":true,\"samples\":" +
           std::to_string(kStrideSamples) +
           ",\"warmup\":" + std::to_string(kStrideWarmup) +
           ",\"measure\":" + std::to_string(kStrideMeasure) +
           ",\"seed\":" + std::to_string(seed) + ",\"jobs\":1}";
}

SampleParams
strideParams(std::uint64_t seed)
{
    SampleParams p;
    p.fastforwardInsts = kStride;
    p.warmupInsts = kStrideWarmup;
    p.measureInsts = kStrideMeasure;
    p.samples = kStrideSamples;
    p.baseSeed = seed;
    p.jobs = 1;
    p.chainSamples = true;
    return p;
}

// --- Spans ----------------------------------------------------------------

std::int64_t
monoNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

/** In-memory span log of one traced unit, written out at exit. */
class Tracer
{
  public:
    struct Record {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        int parent;
    };

    int
    open(const char *name)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        records_.push_back({name, monoNs(), 0, parent});
        stack_.push_back(static_cast<int>(records_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        records_[id].end = monoNs();
        stack_.pop_back();
    }

    const std::vector<Record> &records() const { return records_; }

  private:
    std::vector<Record> records_;
    std::vector<int> stack_;
};

/** Scoped span; a null tracer records nothing. */
class Span
{
  public:
    Span(Tracer *t, const char *name)
        : t_(t), id_(t ? t->open(name) : -1)
    {
    }
    ~Span() { stop(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void
    stop()
    {
        if (t_ && id_ >= 0)
            t_->close(id_);
        id_ = -1;
    }

  private:
    Tracer *t_;
    int id_;
};

// --- Result line ----------------------------------------------------------

struct Result {
    std::int64_t readyNs = 0;
    std::int64_t unitNs = 0;
    /** Outputs the driver checks: golden rows, cell bits, verdicts. */
    std::map<std::string, std::string> out;
    std::vector<std::string> cells;
    /** Exact work counts (simulated instructions, bytes...). */
    std::map<std::string, std::uint64_t> counts;
};

std::string
hexBits(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
    return buf;
}

void
emit(const Result &r, const Tracer *tracer)
{
    JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.key("ready_ns");
    w.value(r.readyNs);
    w.key("unit_ns");
    w.value(r.unitNs);
    w.key("heap_peak_bytes");
    w.value(static_cast<std::int64_t>(g_heapPeak.load()));
    w.key("out");
    w.beginObject();
    for (const auto &[k, v] : r.out) {
        w.key(k);
        w.value(v);
    }
    w.endObject();
    w.key("cells");
    w.beginArray();
    for (const std::string &c : r.cells)
        w.value(c);
    w.endArray();
    w.key("counts");
    w.beginObject();
    for (const auto &[k, v] : r.counts) {
        w.key(k);
        w.value(v);
    }
    w.endObject();
    w.key("spans");
    w.beginArray();
    if (tracer) {
        for (const Tracer::Record &s : tracer->records()) {
            w.beginArray();
            w.value(s.name);
            w.value(s.start);
            w.value(s.end);
            w.value(s.parent);
            w.endArray();
        }
    }
    w.endArray();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

// --- Shared traced pieces ---------------------------------------------------

/** Exact work counts of a traced unit. */
struct Work {
    std::uint64_t insts = 0;   ///< instructions the timing cores committed
    std::uint64_t cycles = 0;  ///< cycles the timing cores simulated
    std::uint64_t ffInsts = 0; ///< instructions fast-forwarded
};

/** Run `core` for `insts` under a core.run span, counting the work. */
void
tracedRun(Tracer &t, CoreBase &core, std::uint64_t insts, Work &work)
{
    Span s(&t, "core.run");
    const std::uint64_t i0 = core.committedInsts();
    const Cycle c0 = core.cycle();
    core.run(insts, ~Cycle{0});
    work.insts += core.committedInsts() - i0;
    work.cycles += core.cycle() - c0;
}

/**
 * runWindow rebuilt from its public calls, one span per layer. The
 * statistics are extracted exactly as runWindow extracts them, so the
 * aggregated cells are bit-identical to the untraced grid.
 */
WindowStats
tracedWindow(Tracer &t, const Workload &workload, const SimConfig &cfg,
             std::uint64_t seed, const SampleParams &p,
             const SimSnapshot &ckpt, Work &work)
{
    Span window(&t, "harness.window");
    Program prog;
    {
        Span s(&t, "workloads.build");
        prog = workload.build(seed);
    }
    std::unique_ptr<CoreBase> core;
    {
        Span s(&t, "core.make");
        core = makeCore(prog, cfg);
    }
    if (ckpt.structurallyCompatible(cfg)) {
        Span s(&t, "core.restore");
        core->restoreCheckpoint(ckpt);
    } else {
        SimSnapshot own;
        {
            Span s(&t, "isa.ff");
            own = buildWarmCheckpoint(prog, cfg.memory,
                                      cfg.core.predictor,
                                      p.fastforwardInsts);
            work.ffInsts += p.fastforwardInsts;
        }
        Span s(&t, "core.restore");
        core->restoreCheckpoint(own);
    }
    tracedRun(t, *core, p.warmupInsts, work);
    core->resetCounters();
    tracedRun(t, *core, p.measureInsts, work);

    const PerfCounters &c = core->counters();
    WindowStats w;
    w.cpi = c.cpi();
    w.mlp = c.mlp();
    w.ilp = c.ilp();
    w.dispatchToIssue = c.dispatchToIssue.mean();
    w.commitFrac = c.cycleFraction(CycleClass::kCommit);
    w.memStallFrac = c.cycleFraction(CycleClass::kMemoryStall);
    w.backendStallFrac = c.cycleFraction(CycleClass::kBackendStall);
    w.frontendStallFrac = c.cycleFraction(CycleClass::kFrontendStall);
    w.condMispredictRate = c.condMispredictRate();
    w.instructions = c.committedInsts;
    w.cycles = c.cycles;
    return w;
}

void
putCounts(Result &r, const Work &work)
{
    r.counts["sim_insts"] = work.insts;
    r.counts["sim_cycles"] = work.cycles;
    r.counts["ff_insts"] = work.ffInsts;
}

std::vector<SimConfig>
configsOf(const std::vector<Profile> &profiles)
{
    std::vector<SimConfig> configs;
    for (Profile p : profiles)
        configs.push_back(makeProfile(p));
    return configs;
}

/** Cells of one grid row as raw bits (cpi, ci95, mlp per profile). */
std::vector<std::string>
cellBits(const std::vector<RunResult> &row)
{
    std::vector<std::string> cells;
    for (const RunResult &r : row) {
        cells.push_back(hexBits(r.mean.cpi) + ":" + hexBits(r.cpiCi95) +
                        ":" + hexBits(r.mean.mlp));
    }
    return cells;
}

std::vector<RunResult>
tracedCells(Tracer &t, const Workload &workload,
            const std::vector<SimConfig> &configs, const SampleParams &p,
            const std::vector<SimSnapshot> &ckpts,
            const std::function<std::uint64_t(unsigned)> &seed_of,
            Work &work)
{
    std::vector<RunResult> row;
    for (const SimConfig &cfg : configs) {
        std::vector<WindowStats> windows;
        for (unsigned s = 0; s < p.samples; ++s) {
            SampleParams q = p;
            q.fastforwardInsts = p.chainSamples
                                     ? p.fastforwardInsts * (s + 1)
                                     : p.fastforwardInsts;
            windows.push_back(tracedWindow(t, workload, cfg, seed_of(s),
                                           q, ckpts[s], work));
        }
        row.push_back(aggregateWindows(windows));
    }
    return row;
}

// --- Units ----------------------------------------------------------------

/** One kernel row of the fig07 smoke grid. */
int
gridRow(const std::string &kernel, std::uint64_t seed, bool traced)
{
    const std::unique_ptr<Workload> workload = makeWorkload(kernel);
    if (!workload) {
        std::fprintf(stderr, "unknown kernel '%s'\n", kernel.c_str());
        return 2;
    }
    const std::vector<Profile> profiles = allProfiles();
    const std::vector<SimConfig> configs = configsOf(profiles);
    const SampleParams p = smokeParams(seed);
    Result r;
    Tracer t;
    std::vector<RunResult> row;
    r.readyNs = monoNs();
    if (!traced) {
        const std::vector<const Workload *> ws{workload.get()};
        row = runGrid(ws, configs, p);
        r.unitNs = monoNs() - r.readyNs;
    } else {
        Span unit(&t, "unit");
        // runGrid phase 1: one checkpoint per sample, built with the
        // first profile's geometry and shared by every profile.
        std::vector<SimSnapshot> ckpts(p.samples);
        Work work;
        for (unsigned s = 0; s < p.samples; ++s) {
            Program prog;
            {
                Span b(&t, "workloads.build");
                prog = workload->build(seed + s);
            }
            Span f(&t, "isa.ff");
            ckpts[s] = buildWarmCheckpoint(prog, configs[0].memory,
                                           configs[0].core.predictor,
                                           p.fastforwardInsts);
            work.ffInsts += p.fastforwardInsts;
        }
        row = tracedCells(
            t, *workload, configs, p, ckpts,
            [seed](unsigned s) { return seed + s; }, work);
        unit.stop();
        r.unitNs = t.records()[0].end - t.records()[0].start;
        putCounts(r, work);
    }
    r.cells = cellBits(row);
    // The fig07 CSV row: CPI and CI normalized to the OoO baseline.
    std::string csv = workload->name();
    const double base = row[0].mean.cpi;
    for (const RunResult &cell : row) {
        csv += "," + CsvWriter::num(cell.mean.cpi / base, 4);
        csv += "," + CsvWriter::num(cell.cpiCi95 / base, 4);
    }
    r.out["csv_row"] = csv;
    emit(r, traced ? &t : nullptr);
    return 0;
}

/** warm-stride set-up: the cold write path of one kernel's chain —
 *  fast-forward, serialize, publish — into the corpus at `dir`. */
int
strideBuild(const std::string &kernel, std::uint64_t seed,
            const std::string &dir, bool traced)
{
    const std::unique_ptr<Workload> workload = makeWorkload(kernel);
    if (!workload) {
        std::fprintf(stderr, "unknown kernel '%s'\n", kernel.c_str());
        return 2;
    }
    const std::vector<SimConfig> configs = configsOf(kStrideProfiles);
    const SampleParams p = strideParams(seed);
    const std::uint64_t geom = geometryFingerprint(
        configs[0].memory, configs[0].core.predictor);
    CheckpointStore store(dir);
    Result r;
    Tracer t;
    Tracer *tp = traced ? &t : nullptr;
    r.readyNs = monoNs();
    std::uint64_t bytes = 0;
    std::uint64_t misses = 0;
    std::uint64_t published = 0;
    Work work;
    {
        Span unit(tp, "unit");
        Program prog;
        {
            Span b(tp, "workloads.build");
            prog = workload->build(seed);
        }
        // runGrid's chained phase 1 on a cold corpus: look up, miss,
        // extend the chain, publish.
        std::vector<SimSnapshot> chain(p.samples);
        for (unsigned s = 0; s < p.samples; ++s) {
            const std::uint64_t target = kStride * (s + 1);
            const CkptKey key{workload->name(), seed, target, geom};
            {
                Span l(tp, "ckpt.load");
                if (store.load(key, chain[s]))
                    continue;
            }
            ++misses;
            {
                Span f(tp, "isa.ff");
                chain[s] = s == 0
                               ? buildWarmCheckpoint(
                                     prog, configs[0].memory,
                                     configs[0].core.predictor, target)
                               : extendWarmCheckpoint(
                                     prog, chain[s - 1], target);
                work.ffInsts += target - (s == 0 ? 0 : kStride * s);
            }
            Span st(tp, "ckpt.store");
            const std::uint64_t b = store.store(key, chain[s]);
            bytes += b;
            published += b > 0 ? 1 : 0;
        }
    }
    r.unitNs = traced ? t.records()[0].end - t.records()[0].start
                      : monoNs() - r.readyNs;
    r.counts["ckpt_bytes"] = bytes;
    r.counts["ckpt_misses"] = misses;
    r.counts["ckpt_published"] = published;
    putCounts(r, work);
    emit(r, tp);
    return 0;
}

/** Cell line in GridService's response format. */
std::string
cellLine(const std::string &kernel, Profile profile, const RunResult &r)
{
    JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.key("type");
    w.value("cell");
    w.key("id");
    w.value("perfbench");
    w.key("workload");
    w.value(kernel);
    w.key("profile");
    w.value(profileName(profile));
    w.key("cpi");
    w.value(r.mean.cpi);
    w.key("ci95");
    w.value(r.cpiCi95);
    w.key("mlp");
    w.value(r.mean.mlp);
    w.key("samples");
    w.value(static_cast<std::uint64_t>(r.cpiSamples.size()));
    w.endObject();
    return w.str();
}

/** warm-stride unit: one GridService request ("-" = no corpus, the
 *  reference the warm cells must equal). */
int
strideRequest(const std::string &kernel, std::uint64_t seed,
              const std::string &dir, bool traced)
{
    const std::unique_ptr<Workload> workload = makeWorkload(kernel);
    if (!workload) {
        std::fprintf(stderr, "unknown kernel '%s'\n", kernel.c_str());
        return 2;
    }
    std::unique_ptr<CheckpointStore> store;
    if (dir != "-")
        store = std::make_unique<CheckpointStore>(dir);
    Result r;
    Tracer t;
    r.readyNs = monoNs();
    if (!traced) {
        GridService service(store.get());
        std::string done;
        const bool ok = service.handleRequest(
            strideRequestLine(kernel, seed), [&](const std::string &line) {
                if (line.rfind("{\"type\":\"cell\"", 0) == 0)
                    r.cells.push_back(line);
                else if (line.rfind("{\"type\":\"done\"", 0) == 0)
                    done = line;
            });
        r.unitNs = monoNs() - r.readyNs;
        r.out["accepted"] = ok ? "1" : "0";
        r.out["done"] = done;
    } else {
        if (!store) {
            std::fprintf(stderr, "the traced request reads a corpus\n");
            return 2;
        }
        const std::vector<SimConfig> configs =
            configsOf(kStrideProfiles);
        const SampleParams p = strideParams(seed);
        const std::uint64_t geom = geometryFingerprint(
            configs[0].memory, configs[0].core.predictor);
        Span unit(&t, "unit");
        std::vector<SimSnapshot> ckpts(p.samples);
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t bytes = 0;
        for (unsigned s = 0; s < p.samples; ++s) {
            Span l(&t, "ckpt.load");
            const CkptKey key{workload->name(), seed,
                              kStride * (s + 1), geom};
            std::uint64_t b = 0;
            if (store->load(key, ckpts[s], &b) &&
                ckpts[s].structurallyCompatible(configs[0])) {
                ++hits;
                bytes += b;
            } else {
                ++misses;
            }
        }
        Work work;
        const std::vector<RunResult> row =
            misses ? std::vector<RunResult>{}
                   : tracedCells(
                         t, *workload, configs, p, ckpts,
                         [seed](unsigned) { return seed; }, work);
        unit.stop();
        r.unitNs = t.records()[0].end - t.records()[0].start;
        for (std::size_t c = 0; c < row.size(); ++c)
            r.cells.push_back(cellLine(kernel, kStrideProfiles[c], row[c]));
        putCounts(r, work);
        r.counts["ckpt_hits"] = hits;
        r.counts["ckpt_bytes"] = bytes;
        r.out["accepted"] = "1";
        r.out["done"] = "{\"ckpt_misses\":" + std::to_string(misses) +
                        ",\"ff_runs\":0}";
    }
    emit(r, traced ? &t : nullptr);
    return 0;
}

/**
 * The fuzz programs' shape: every generator extra on, size fixed. With
 * paramsForSeed's per-seed shapes one seed's cost varies with a
 * coefficient of variation of 0.45; with one shape, 0.26, so which
 * seeds a run draws moves its time less.
 */
RandomProgramParams
fuzzShape()
{
    RandomProgramParams p;
    p.blocks = 12;
    p.opsPerBlock = 9;
    p.loopIterations = 3;
    p.functions = 2;
    p.useFences = true;
    p.useClflush = true;
    p.useRdtsc = true;
    p.callChainDepth = 2;
    return p;
}

/** One differential-fuzz seed across all ten profiles, DIFT and the
 *  per-cycle InvariantChecker on. */
int
fuzzSeed(std::uint64_t seed, bool traced)
{
    const FuzzParams params;
    Result r;
    Tracer t;
    SeedOutcome outcome;
    r.readyNs = monoNs();
    if (!traced) {
        const Program prog = generateRandomProgram(seed, fuzzShape());
        outcome = fuzzProgram(prog, seed, params);
        r.unitNs = monoNs() - r.readyNs;
    } else {
        Program prog;
        {
            Span unit(&t, "unit");
            {
                Span b(&t, "workloads.build");
                prog = generateRandomProgram(seed, fuzzShape());
            }
            Span f(&t, "fuzz.seed");
            outcome = fuzzProgram(prog, seed, params);
        }
        r.unitNs = t.records()[0].end - t.records()[0].start;
        // The checker's and DIFT's shares: the same seed with each
        // turned off, outside the unit span.
        FuzzParams no_checker = params;
        no_checker.checkInvariants = false;
        FuzzParams no_taint = params;
        no_taint.compareTaint = false;
        {
            Span s(&t, "fuzz.no_checker");
            fuzzProgram(prog, seed, no_checker);
        }
        Span s(&t, "fuzz.no_dift");
        fuzzProgram(prog, seed, no_taint);
    }
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016" PRIx64, outcome.hash);
    r.cells.push_back(hash);
    r.out["skipped"] = outcome.skipped ? "1" : "0";
    r.counts["failures"] = outcome.failures.size();
    if (!outcome.failures.empty()) {
        const FuzzFailure &f = outcome.failures.front();
        r.out["first_failure"] = std::string(profileName(f.profile)) +
                                 ": " + fuzzFailureKindName(f.kind) +
                                 ": " + f.detail;
    }
    emit(r, traced ? &t : nullptr);
    return 0;
}

/** One Table-1 cell: an attack against one machine profile. */
int
attackCell(const std::string &name, unsigned profile_index,
           unsigned secret, bool traced)
{
    const std::vector<Profile> profiles = allProfiles();
    std::unique_ptr<AttackBase> attack = makeAttack(name);
    if (!attack || profile_index >= profiles.size()) {
        std::fprintf(stderr, "bad attack cell '%s' %u %u\n",
                     name.c_str(), profile_index, secret);
        return 2;
    }
    const SimConfig cfg = makeProfile(profiles[profile_index]);
    const auto byte = static_cast<std::uint8_t>(secret);
    Result r;
    Tracer t;
    AttackResult res;
    r.readyNs = monoNs();
    if (!traced) {
        res = attack->run(cfg, byte);
        r.unitNs = monoNs() - r.readyNs;
    } else {
        // AttackBase::run rebuilt from its public calls.
        Span unit(&t, "unit");
        SimConfig attack_cfg = cfg;
        attack->adjustConfig(attack_cfg);
        Program prog;
        {
            Span b(&t, "workloads.build");
            prog = attack->build(byte);
        }
        SecretMap secrets;
        attack->declareSecrets(secrets);
        TaintEngine dift(secrets);
        std::unique_ptr<CoreBase> core;
        {
            Span m(&t, "core.make");
            core = makeCore(prog, attack_cfg);
        }
        core->attachDift(&dift);
        Work work;
        {
            Span c(&t, "core.run");
            core->run(~std::uint64_t{0}, 40'000'000);
            work.insts = core->committedInsts();
            work.cycles = core->cycle();
        }
        if (!core->halted()) {
            std::fprintf(stderr, "attack '%s' did not halt\n",
                         name.c_str());
            return 1;
        }
        {
            Span v(&t, "attacks.recover");
            res.secret = byte;
            res.cycles = core->cycle();
            res.threshold = attack->signalThreshold();
            AttackBase::recoverByTiming(*core, res);
            res.oracle = dift.report();
        }
        unit.stop();
        r.unitNs = t.records()[0].end - t.records()[0].start;
        putCounts(r, work);
    }
    r.out["timing_leak"] = res.leaked() ? "1" : "0";
    r.out["dift_leak"] = res.oracle.leaked() ? "1" : "0";
    r.out["expect_blocked"] =
        attack->expectedBlocked(cfg.security) ? "1" : "0";
    r.cells.push_back(std::to_string(res.cycles) + ":" +
                      std::to_string(res.fastestGuess) + ":" +
                      hexBits(res.signal));
    emit(r, traced ? &t : nullptr);
    return 0;
}

/**
 * Host-speed probe: a fixed loop of dependent loads over 4 MiB and
 * integer mixing, independent of the simulator's code. The driver runs
 * it before each timed unit and waits for it to read close to its
 * fastest time, so that units run while the host is in a fast stretch.
 */
int
probe()
{
    constexpr std::uint32_t kMask = (1u << 20) - 1;
    std::vector<std::uint32_t> a(kMask + 1);
    for (std::uint32_t i = 0; i <= kMask; ++i)
        a[i] = (i * 2654435761u) & kMask;
    const std::int64_t start = monoNs();
    std::uint64_t x = 1;
    std::uint32_t j = 0;
    for (std::uint32_t k = 0; k < 150'000; ++k) {
        j = a[(j + k) & kMask];
        x = x * 6364136223846793005ULL + j;
        if (x >> 63)
            x ^= static_cast<std::uint64_t>(j) << 3;
    }
    const std::int64_t end = monoNs();
    std::printf("{\"unit_ns\":%" PRId64 ",\"mix\":%" PRIu64 "}\n",
                end - start, x & 1);
    return 0;
}

/** Unit catalog for the driver: kernel, attack and profile names. */
int
list()
{
    JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.key("kernels");
    w.beginArray();
    for (const auto &wl : makeAllWorkloads())
        w.value(wl->name());
    w.endArray();
    w.key("attacks");
    w.beginArray();
    for (const auto &a : makeAllAttacks())
        w.value(a->name());
    w.endArray();
    w.key("profiles");
    w.beginArray();
    for (Profile p : allProfiles())
        w.value(profileName(p));
    w.endArray();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

bool
parseU64(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        return false;
    out = v;
    return true;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_worker list | probe\n"
                 "       perfbench_worker grid-row KERNEL SEED TRACE\n"
                 "       perfbench_worker stride-build KERNEL SEED DIR "
                 "TRACE\n"
                 "       perfbench_worker stride-request KERNEL SEED "
                 "DIR|- TRACE\n"
                 "       perfbench_worker fuzz-seed SEED TRACE\n"
                 "       perfbench_worker attack-cell ATTACK "
                 "PROFILE_INDEX SECRET TRACE\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 1 && args[0] == "list")
        return list();
    if (args.size() == 1 && args[0] == "probe")
        return probe();
    if (args.size() < 3)
        return usage();
    const std::string &cmd = args[0];
    const std::string &trace_arg = args.back();
    if (trace_arg != "0" && trace_arg != "1")
        return usage();
    const bool traced = trace_arg == "1";
    std::uint64_t n = 0;
    if (cmd == "grid-row" && args.size() == 4 &&
        parseU64(args[2].c_str(), n))
        return gridRow(args[1], n, traced);
    if (cmd == "stride-build" && args.size() == 5 &&
        parseU64(args[2].c_str(), n))
        return strideBuild(args[1], n, args[3], traced);
    if (cmd == "stride-request" && args.size() == 5 &&
        parseU64(args[2].c_str(), n))
        return strideRequest(args[1], n, args[3], traced);
    if (cmd == "fuzz-seed" && args.size() == 3 &&
        parseU64(args[1].c_str(), n))
        return fuzzSeed(n, traced);
    std::uint64_t secret = 0;
    if (cmd == "attack-cell" && args.size() == 5 &&
        parseU64(args[2].c_str(), n) &&
        parseU64(args[3].c_str(), secret) && n < 64 && secret < 256)
        return attackCell(args[1], static_cast<unsigned>(n),
                          static_cast<unsigned>(secret), traced);
    return usage();
}
