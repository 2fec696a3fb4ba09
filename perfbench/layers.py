"""Per-layer metrics from the spans of a traced run.

Each unit contributes the spans of its fastest traced repetition, so the
layer times of one unit add up to that unit's time. The fuzz shares
compare each variant's fastest repetition instead, since the variants
of one repetition run at different moments of the host. Span names are the
layer boundaries worker.cc records around the public calls:
workloads.build, core.make, core.restore, core.run, isa.ff, ckpt.load,
ckpt.store, fuzz.seed, attacks.recover; "unit" and "harness.window" are
the harness's own spans, and fuzz.no_checker / fuzz.no_dift run outside
the unit.
"""

LAYER_SPANS = ("workloads.build", "core.make", "core.restore", "core.run",
               "isa.ff", "ckpt.load", "ckpt.store", "fuzz.seed",
               "attacks.recover")


def _seconds(span):
    return (span[2] - span[1]) / 1e9


def span_totals(res):
    """{span name: seconds} of one traced repetition, the unit span
    (always the first) left out."""
    totals = {}
    for span in res["spans"][1:]:
        totals[span[0]] = totals.get(span[0], 0.0) + _seconds(span)
    return totals


def fastest(reps):
    """The traced repetition with the shortest unit time."""
    return min(reps, key=lambda r: r["unit_ns"])


def harness_self_seconds(res):
    """Unit time not covered by any layer span: the harness's own cost."""
    layers = sum(v for k, v in span_totals(res).items() if k in LAYER_SPANS)
    return res["unit_ns"] / 1e9 - layers


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def per_layer(pass_reps, setup_reps, untraced_pass_s, events):
    """Per-layer metrics of one traced run.

    pass_reps / setup_reps: the traced repetitions of every pass and
    set-up unit, one list per unit. events: exact counts over all
    repetitions. Returns {name: (value, unit)}; a layer a workload does
    not use reports 0.
    """
    pass_runs = [fastest(reps) for reps in pass_reps]
    setup_runs = [fastest(reps) for reps in setup_reps]

    def total(runs, name):
        return sum(span_totals(r).get(name, 0.0) for r in runs)

    def count(runs, name):
        return sum(r["counts"].get(name, 0) for r in runs)

    def best_total(name):
        return sum(min(span_totals(r).get(name, 0.0) for r in reps)
                   for reps in pass_reps)

    attack_runs = [r for r in pass_runs if "attacks.recover"
                   in (s[0] for s in r["spans"])]
    build = total(pass_runs, "workloads.build")
    make = total(pass_runs, "core.make")
    restore = total(pass_runs, "core.restore")
    run = total(pass_runs, "core.run")
    every = pass_runs + setup_runs
    ff = total(every, "isa.ff")
    load = total(pass_runs, "ckpt.load")
    store = total(setup_runs, "ckpt.store")
    seed = total(pass_runs, "fuzz.seed")
    seed_best = best_total("fuzz.seed")
    traced_pass = sum(r["unit_ns"] for r in pass_runs) / 1e9
    return {
        "trace.pass_s": (traced_pass, "s"),
        "trace.overhead_s": (traced_pass - untraced_pass_s, "s"),
        "harness.overhead_s": (
            sum(harness_self_seconds(r) for r in pass_runs), "s"),
        "workloads.build_s": (build, "s"),
        "core.make_s": (make, "s"),
        "core.restore_s": (restore, "s"),
        "core.run_s": (run, "s"),
        "core.setup_share": (
            _ratio(build + make + restore, build + make + restore + run),
            "fraction"),
        "core.kips": (_ratio(count(pass_runs, "sim_insts"), run) / 1e3,
                      "KIPS"),
        "core.sim_insts": (count(pass_runs, "sim_insts"), "count"),
        "core.sim_cycles": (count(pass_runs, "sim_cycles"), "count"),
        "isa.ff_s": (ff, "s"),
        "isa.ff_mips": (_ratio(count(every, "ff_insts"), ff) / 1e6, "MIPS"),
        "ckpt.load_s": (load, "s"),
        "ckpt.load_mb_s": (
            _ratio(count(pass_runs, "ckpt_bytes"), load) / 1e6, "MB/s"),
        "ckpt.hits": (count(pass_runs, "ckpt_hits"), "count"),
        "ckpt.store_s": (store, "s"),
        "ckpt.store_mb_s": (
            _ratio(count(setup_runs, "ckpt_bytes"), store) / 1e6, "MB/s"),
        "ckpt.bytes": (count(setup_runs, "ckpt_bytes"), "count"),
        "ckpt.misses": (count(setup_runs, "ckpt_misses"), "count"),
        "fuzz.seed_s": (seed, "s"),
        "fuzz.checker_share": (
            _ratio(seed_best - best_total("fuzz.no_checker"), seed_best),
            "fraction"),
        "fuzz.dift_share": (
            _ratio(seed_best - best_total("fuzz.no_dift"), seed_best),
            "fraction"),
        "fuzz.failures": (events.get("fuzz_failures", 0), "count"),
        "attacks.cell_s": (
            sum(r["unit_ns"] for r in attack_runs) / 1e9, "s"),
        "attacks.disagreements": (
            events.get("attack_disagreements", 0), "count"),
    }
