/**
 * @file
 * Structural parameters of the simulated cores and the combined
 * simulation configuration (paper Table 3 defaults).
 */

#ifndef NDASIM_CORE_CORE_CONFIG_HH
#define NDASIM_CORE_CORE_CONFIG_HH

#include <string>

#include "branch/predictor_unit.hh"
#include "mem/hierarchy.hh"
#include "nda/policy.hh"

namespace nda {

/** SMT fetch arbitration between hardware threads. */
enum class SmtFetchPolicy : std::uint8_t {
    kRoundRobin = 0, ///< rotate fetch priority by cycle parity
    kIcount,         ///< fewest in-flight instructions fetches first
};

/** Out-of-order core structural parameters (Table 3). */
struct CoreParams {
    unsigned fetchWidth = 8;
    unsigned dispatchWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    unsigned robEntries = 192;
    unsigned iqEntries = 60;
    unsigned lqEntries = 32;
    unsigned sqEntries = 32;
    unsigned numPhysRegs = 320;
    /** Fetch-to-dispatch pipeline depth in cycles. Sized so a branch
     *  mispredict costs ~16 cycles, matching the paper's measured BTB
     *  miss penalty (Fig 5) on its Haswell-like configuration. */
    unsigned frontendDelay = 12;
    /** Fetch buffer capacity in micro-ops. */
    unsigned fetchQueueEntries = 48;
    /** Data accesses that may begin per cycle (Table 3: 1 port). */
    unsigned memPorts = 1;
    /**
     * Cycles between a faulting instruction reaching the ROB head and
     * the pipeline flush (trap delivery latency). During this window
     * dependents of the faulting instruction keep executing — the
     * race Meltdown-class chosen-code attacks exploit (paper §3.1).
     */
    unsigned faultLatency = 16;
    /**
     * Cycles for a retirement-time wake-up (NDA load restriction's
     * broadcast-at-head, paper §5.3) to reach the issue queue. The
     * commit stage has no bypass path into the scheduler, so this is
     * several cycles on real designs (gem5 O3's commit-to-IEW path).
     */
    unsigned retireWakeDelay = 3;
    /**
     * Hardware thread contexts sharing this core. 1 is today's
     * single-context core (bit-identical to the pre-SMT pipeline);
     * 2 adds a second architectural context with its own rename map,
     * ROB partition, and fetch stream competing for the shared issue
     * queue, LSQ, functional units, and MSHR files.
     */
    unsigned smtThreads = 1;
    /** SMT fetch arbitration policy (ignored at smtThreads == 1). */
    SmtFetchPolicy smtFetchPolicy = SmtFetchPolicy::kRoundRobin;
    /**
     * Multiply/divide issues allowed per cycle across all threads
     * (0 = unlimited, the legacy behavior). A finite count creates
     * the execution-port contention a SMoTherSpectre-style co-resident
     * attacker observes.
     */
    unsigned mulDivPorts = 0;
    PredictorParams predictor;
};

/** A complete simulated-machine configuration. */
struct SimConfig {
    std::string name = "ooo";
    bool inOrder = false;
    CoreParams core;
    HierarchyParams memory;
    SecurityConfig security;
    /**
     * Per-thread NDA policy split. When set, hardware thread 1 runs
     * under `security1` instead of `security` — the co-residency
     * threat model's asymmetric case: a protected victim (thread 0)
     * sharing the core with an unprotected attacker (thread 1).
     */
    bool perThreadSecurity = false;
    SecurityConfig security1;

    /** The security policy governing hardware thread `tid`. */
    const SecurityConfig &
    secFor(unsigned tid) const
    {
        return perThreadSecurity && tid > 0 ? security1 : security;
    }
};

/** Render the key parameters as a Table-3-style listing. */
std::string configTable(const SimConfig &cfg);

} // namespace nda

#endif // NDASIM_CORE_CORE_CONFIG_HH
