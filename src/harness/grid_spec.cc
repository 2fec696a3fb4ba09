#include "harness/grid_spec.hh"

#include <charconv>
#include <type_traits>

namespace nda {

namespace {

/** Offer one argv token to the grid flags; true when it is one. */
bool
parseGridArg(const std::string &arg, GridSpec &spec, unsigned cli_flags,
             std::string &error)
{
    const auto set = [&](const char *key, const FieldValue &value) {
        error += spec.setField(key, value);
        return true;
    };
    if (arg == "--quick") {
        return set("samples", std::uint64_t{1}) &&
               set("warmup", std::uint64_t{10'000}) &&
               set("measure", std::uint64_t{30'000});
    }
    if (arg == "--no-reuse")
        return set("reuse", false);
    if (arg == "--chain")
        return set("chain", true);
    if (arg == "--cpi-stack")
        return set("cpi_stack", true);

    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos || arg.rfind("--", 0) != 0)
        return false;
    const std::string flag = arg.substr(2, eq - 2);
    const std::string text = arg.substr(eq + 1);
    for (const char *key :
         {"fastforward", "warmup", "measure", "insts", "samples", "seed",
          "jobs"}) {
        if (flag != key)
            continue;
        const std::optional<std::uint64_t> n = parseUnsigned(text);
        set(flag == "insts" ? "measure" : key,
            n ? FieldValue{*n} : FieldValue{});
        if (!error.empty())
            error = "invalid value in '" + arg + "': " + error;
        return true;
    }

    const auto count = [&](unsigned &out, unsigned min) {
        const unsigned max = std::numeric_limits<unsigned>::max();
        const std::optional<std::uint64_t> n = parseUnsigned(text, max);
        if (n && *n >= min)
            out = static_cast<unsigned>(*n);
        else
            error = "invalid value in '" + arg + "' (expected a number "
                    "from " + std::to_string(min) + " to " +
                    std::to_string(max) + ")";
        return true;
    };
    if ((cli_flags & kCliMshr) && flag == "mshr")
        return count(spec.mshrEntries, 0);
    if ((cli_flags & kCliSmt) && flag == "smt")
        return count(spec.smtThreads, 1);
    if ((cli_flags & kCliSmt) && flag == "smt-policy") {
        if (text == "rr")
            spec.smtPolicy = SmtFetchPolicy::kRoundRobin;
        else if (text == "icount")
            spec.smtPolicy = SmtFetchPolicy::kIcount;
        else
            error = "unknown SMT fetch policy '" + text +
                    "' (expected rr or icount)";
        return true;
    }
    return false;
}

} // namespace

std::string
gridUsage(unsigned cli_flags)
{
    std::string text =
        "  --quick        1 sample, 10k warmup, 30k measured\n"
        "  --samples=N    independently-seeded samples per cell\n"
        "  --insts=N      measured instructions per window\n"
        "  --measure=N    alias for --insts=N\n"
        "  --warmup=N     detailed warm-up instructions per window\n"
        "  --fastforward=N\n"
        "                 functional fast-forward (with cache/predictor "
        "warming)\n"
        "                 before each window (default: 0)\n"
        "  --no-reuse     rebuild the fast-forward checkpoint for every "
        "window\n"
        "                 instead of sharing one per (workload, sample)\n"
        "  --chain        chained sampling: --fastforward becomes a "
        "stride and\n"
        "                 sample s measures offset (s+1) x stride of ONE "
        "run\n"
        "  --seed=N       base RNG seed (sample s uses seed+s)\n"
        "  --jobs=N       concurrent simulation windows (default: "
        "hardware threads; results are identical for any N)\n"
        "  --cpi-stack    attach the causal CPI-stack profiler to every "
        "measured\n"
        "                 window (per-cause slot attribution + per-PC "
        "hotspots)\n";
    if (cli_flags & kCliMshr)
        text += "  --mshr=N       MSHR entries per L1 file (0 = eager "
                "fills)\n";
    if (cli_flags & kCliSmt)
        text += "  --smt=N        hardware threads per core (1 = explicit "
                "single-thread)\n"
                "  --smt-policy=P SMT fetch arbitration: rr (default) or "
                "icount\n";
    return text;
}

std::optional<std::uint64_t>
parseUnsigned(const std::string &text, std::uint64_t max)
{
    std::uint64_t n = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, n);
    if (ec != std::errc() || ptr != end || n > max)
        return std::nullopt;
    return n;
}

std::string
GridSpec::setField(const std::string &key, const FieldValue &value)
{
    // A number must fit the member it sets.
    const auto number = [&](auto &field) -> std::string {
        using T = std::remove_reference_t<decltype(field)>;
        const std::uint64_t *n = std::get_if<std::uint64_t>(&value);
        if (!n || *n > std::numeric_limits<T>::max())
            return "field '" + key + "' must be a non-negative number "
                   "(an integer no larger than " +
                   std::to_string(std::numeric_limits<T>::max()) + ")";
        field = static_cast<T>(*n);
        return "";
    };
    const auto boolean = [&](bool &field) -> std::string {
        const bool *b = std::get_if<bool>(&value);
        if (!b)
            return "field '" + key + "' must be a boolean";
        field = *b;
        return "";
    };
    SampleParams &p = params;
    if (key == "fastforward")
        return number(p.fastforwardInsts);
    if (key == "warmup")
        return number(p.warmupInsts);
    if (key == "measure")
        return number(p.measureInsts);
    if (key == "samples")
        return number(p.samples);
    if (key == "seed")
        return number(p.baseSeed);
    if (key == "jobs") {
        const std::string error = number(p.jobs);
        if (p.jobs == 0)
            p.jobs = ThreadPool::defaultConcurrency();
        return error;
    }
    if (key == "reuse")
        return boolean(p.reuseCheckpoints);
    if (key == "chain")
        return boolean(p.chainSamples);
    if (key == "cpi_stack")
        return boolean(p.cpiStack);
    return "unknown field '" + key + "'";
}

std::string
GridSpec::check() const
{
    if (std::string error = params.check(); !error.empty())
        return error;
    for (const std::string &name : workloads) {
        if (!makeWorkload(name))
            return "unknown workload '" + name + "'";
    }
    return "";
}

std::vector<SimConfig>
GridSpec::configs() const
{
    std::vector<SimConfig> out;
    for (Profile p : profiles) {
        SimConfig cfg = makeProfile(p);
        cfg.memory.mshrEntries = mshrEntries;
        cfg.core.smtThreads = smtThreads;
        cfg.core.smtFetchPolicy = smtPolicy;
        out.push_back(cfg);
    }
    return out;
}

std::vector<std::unique_ptr<Workload>>
GridSpec::makeWorkloads() const
{
    if (workloads.empty())
        return makeAllWorkloads();
    std::vector<std::unique_ptr<Workload>> out;
    for (const std::string &name : workloads)
        out.push_back(makeWorkload(name));
    return out;
}

std::string
gridSpecFromArgs(const std::vector<std::string> &args, GridSpec &spec,
                 unsigned cli_flags, const ArgHandler &own)
{
    for (const std::string &arg : args) {
        std::string error;
        if (!(own && own(arg, error)) &&
            !parseGridArg(arg, spec, cli_flags, error)) {
            error = "unrecognized argument '" + arg + "'";
        }
        if (!error.empty())
            return error;
    }
    return spec.check();
}

} // namespace nda
