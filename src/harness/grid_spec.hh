/**
 * @file
 * The description of one workload x profile sampling grid. The benches
 * build it from flags (gridSpecFromArgs), the grid service from a JSON
 * request (gridSpecFromJson, harness/grid_service.hh); both set the
 * shared sampling keys through one field table and get an error string
 * back instead of an exit.
 */

#ifndef NDASIM_HARNESS_GRID_SPEC_HH
#define NDASIM_HARNESS_GRID_SPEC_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/thread_pool.hh"
#include "harness/profiles.hh"
#include "harness/runner.hh"

namespace nda {

/** Strict decimal parse: ASCII digits only, value at most `max`. */
std::optional<std::uint64_t>
parseUnsigned(const std::string &text,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** A field-table value as a front end read it: a non-negative
 *  integer, a boolean, or anything else (rejected by every key). */
using FieldValue = std::variant<std::monostate, std::uint64_t, bool>;

/** Command-line-only hardware flags a bench opts into. */
enum GridCliFlags : unsigned {
    kCliMshr = 1u << 0, ///< --mshr=N
    kCliSmt = 1u << 1,  ///< --smt=N, --smt-policy=rr|icount
};

struct GridSpec {
    std::vector<std::string> workloads; ///< names; empty = full suite
    std::vector<Profile> profiles = allProfiles();
    SampleParams params{.jobs = ThreadPool::defaultConcurrency()};
    unsigned mshrEntries = 0;
    unsigned smtThreads = 1;
    SmtFetchPolicy smtPolicy = SmtFetchPolicy::kRoundRobin;

    /** The field table: set SampleParams key `key` — fastforward,
     *  warmup, measure, samples, seed, jobs (0 = hardware threads),
     *  chain or cpi_stack. "" on success, else an error naming
     *  the key: unknown, wrong type, or a number its field cannot
     *  hold. */
    std::string setField(const std::string &key, const FieldValue &value);

    /** "" when the grid can run, else why not: SampleParams::check()
     *  or an unknown workload name. */
    std::string check() const;

    /** One SimConfig per profile, MSHR and SMT knobs applied. */
    std::vector<SimConfig> configs() const;

    /** The named workloads (after check()), or the full suite. */
    std::vector<std::unique_ptr<Workload>> makeWorkloads() const;

    bool operator==(const GridSpec &) const = default;
};

/** Handler for one argv token: true when the token is its own, with
 *  `error` set if the token's value is bad. */
using ArgHandler =
    std::function<bool(const std::string &arg, std::string &error)>;

/** Usage lines of the grid flags gridSpecFromArgs takes under
 *  `cli_flags`. */
std::string gridUsage(unsigned cli_flags);

/**
 * The command-line front end: walk `args` (argv without argv[0]) once,
 * offering each token to `own` first, then to the grid flags. Returns
 * "" with `spec` filled and checked, or the first error.
 */
std::string gridSpecFromArgs(const std::vector<std::string> &args,
                             GridSpec &spec, unsigned cli_flags = 0,
                             const ArgHandler &own = nullptr);

} // namespace nda

#endif // NDASIM_HARNESS_GRID_SPEC_HH
