"""The benchmark's workloads: their units and the checks on each output.

A workload is a fixed list of short units, each run in a fresh worker
process. Which layer each workload stresses, and why, is in README.md.
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_CSV = Path("tests") / "golden" / "fig07_grid_smoke.csv"
# Large-image kernels: their checkpoints are megabytes, so loading them
# is a real share of a warm request.
STRIDE_KERNELS = ("ptrchase", "stream", "mixed", "compute")
FUZZ_SEEDS_PER_RUN = 32
# Table 1 has no in-order column: an in-order core never speculates.
TABLE1_SKIPPED_PROFILES = ("In-Order",)
# The secret byte table01_attack_matrix plants, used at every seed.
TABLE1_SECRET = 42
CORPUS = "{corpus}"


@dataclass(frozen=True)
class Unit:
    """One unit: worker arguments (without the trailing trace flag)."""

    key: str
    args: tuple
    setup: bool = False

    def argv(self, traced, corpus=None):
        args = [corpus if a == CORPUS else str(a) for a in self.args]
        return args + ["1" if traced else "0"]


@dataclass
class Workload:
    name: str
    seed: int
    units: list
    setup_units: list = field(default_factory=list)
    # Outputs every repetition of a unit must reproduce, by unit key.
    expected: dict = field(default_factory=dict)
    # Exact event counts across all repetitions (fuzz failures...).
    events: dict = field(default_factory=dict)

    @property
    def needs_corpus(self):
        return bool(self.setup_units)

    def prepare(self, spawn, tally):
        """Untimed one-off work before the first round (none by default)."""

    def check(self, unit, res):
        """None if `res` is a correct output of `unit`, else the reason."""
        want = self.expected.setdefault(unit.key, res["cells"])
        if res["cells"] != want:
            return "cells differ from the unit's first repetition"
        return self.check_outputs(unit, res)

    def check_outputs(self, unit, res):
        return None

    def count(self, event, n=1):
        self.events[event] = self.events.get(event, 0) + n


class SmokeGrid(Workload):
    """The golden fig07 smoke grid, one unit per kernel row."""

    def __init__(self, catalog, seed, root):
        units = [Unit(f"row:{k}", ("grid-row", k, seed))
                 for k in catalog["kernels"]]
        random.Random(seed).shuffle(units)
        super().__init__("smoke-grid", seed, units)
        self.golden = None
        if seed == 1:
            # Read in place, so a deliberate re-baseline carries over.
            lines = (root / GOLDEN_CSV).read_text().splitlines()[1:]
            self.golden = {ln.split(",", 1)[0]: ln for ln in lines}

    def check_outputs(self, unit, res):
        if self.golden is None:
            return None
        kernel = unit.key.split(":", 1)[1]
        if res["out"]["csv_row"] != self.golden.get(kernel):
            return f"row differs from {GOLDEN_CSV}"
        return None


class WarmStride(Workload):
    """Chained long-stride GridService requests from a warm corpus."""

    def __init__(self, catalog, seed, root):
        del catalog, root
        units = [Unit(f"request:{k}", ("stride-request", k, seed, CORPUS))
                 for k in STRIDE_KERNELS]
        setup = [Unit(f"build:{k}", ("stride-build", k, seed, CORPUS),
                      setup=True)
                 for k in STRIDE_KERNELS]
        rng = random.Random(seed)
        rng.shuffle(units)
        rng.shuffle(setup)
        super().__init__("warm-stride", seed, units, setup)

    def prepare(self, spawn, tally):
        # The same requests without a corpus: the cells a warm corpus
        # must reproduce bit for bit.
        for unit in self.units:
            ref = Unit(unit.key, unit.args[:3] + ("-",))
            res, err = spawn(ref.argv(traced=False))
            if err is None and res["out"].get("accepted") != "1":
                err = "request rejected"
            if tally.record(f"reference {unit.key}", err):
                self.expected[unit.key] = res["cells"]

    def check_outputs(self, unit, res):
        if unit.setup:
            counts = res["counts"]
            if counts["ckpt_bytes"] == 0:
                return "published no checkpoint bytes"
            if counts["ckpt_published"] != counts["ckpt_misses"]:
                return "not every missed checkpoint was published"
            return None
        if res["out"].get("accepted") != "1":
            return "request rejected"
        done = json.loads(res["out"]["done"])
        if done.get("ckpt_misses") != 0 or done.get("ff_runs") != 0:
            return f"warm request missed the corpus: {res['out']['done']}"
        return None


class Security(Workload):
    """Differential-fuzz seeds interleaved with Table-1 attack cells."""

    def __init__(self, catalog, seed, root):
        del root
        first = 1 + (seed - 1) * FUZZ_SEEDS_PER_RUN
        units = [Unit(f"fuzz:{s}", ("fuzz-seed", s))
                 for s in range(first, first + FUZZ_SEEDS_PER_RUN)]
        columns = [(index, profile)
                   for index, profile in enumerate(catalog["profiles"])
                   if profile not in TABLE1_SKIPPED_PROFILES]
        # A third of the matrix per run (every attack, three columns),
        # rotating with the seed, so three seeds cover all of Table 1
        # and each unit gets three times the repetitions.
        for row, attack in enumerate(catalog["attacks"]):
            for i in range(row + seed, row + seed + len(columns), 3):
                index, profile = columns[i % len(columns)]
                units.append(Unit(
                    f"attack:{attack}@{profile}",
                    ("attack-cell", attack, index, TABLE1_SECRET)))
        random.Random(seed).shuffle(units)
        super().__init__("security", seed, units)

    def check_outputs(self, unit, res):
        out = res["out"]
        if unit.key.startswith("fuzz:"):
            self.count("fuzz_failures", res["counts"]["failures"])
            if res["counts"]["failures"]:
                return f"fuzz failure: {out['first_failure']}"
            return None
        if out["timing_leak"] != out["dift_leak"]:
            self.count("attack_disagreements")
            return "timing and DIFT verdicts disagree"
        if (out["timing_leak"] == "1") == (out["expect_blocked"] == "1"):
            return "verdict contradicts expectedBlocked (paper Table 2)"
        return None


WORKLOADS = {
    "smoke-grid": SmokeGrid,
    "warm-stride": WarmStride,
    "security": Security,
}
