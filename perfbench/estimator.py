"""Best-of-repetition estimator and the round-robin schedule it rests on.

The benchmark host drifts between a fast state and slow ones (up to
about 1.9x slower) for stretches of a second to minutes, so a mean over
a run of less than a minute spreads 25-50% from run to run.
The host only ever adds time to a deterministic simulation, so the
fastest repetition of a unit is the estimate closest to its true cost.
Running the units round-robin spreads each unit's repetitions over the
whole run, which gives every unit the same chance of meeting a fast
stretch, and the gate below spends the run's repetitions inside fast
stretches where it can.
"""

import time


def sum_of_best(times_by_unit):
    """The workload's estimate: the sum of its units' fastest times."""
    return sum(min(times) for times in times_by_unit.values())


def run_rounds(round_fn, seconds, clock=time.monotonic):
    """Call round_fn(over) round after round until `seconds` have passed.

    over() turns true once the time is up; round_fn checks it between
    units and stops there. The first round ignores the clock, so every
    unit runs at least once. Returns the number of rounds started.
    """
    deadline = clock() + seconds
    rounds = 0
    while True:
        first = rounds == 0
        round_fn(lambda: not first and clock() >= deadline)
        rounds += 1
        if clock() >= deadline:
            return rounds


class FastStretchGate:
    """Holds each timed unit back until the host is in a fast stretch.

    `probe()` times a fixed loop that does not depend on the code under
    test and returns nanoseconds, or None if it could not run. Before a
    unit, wait() probes until a reading is within TOLERANCE of the
    fastest reading so far. Fast stretches last seconds, so a fast
    reading vouches for the next FRESH_S seconds without probing again.
    A wait ends after MAX_WAIT_S, and waiting stops once it has taken
    SHARE of the time since the gate was made, so a host that stays
    slow is still measured.
    """

    TOLERANCE = 1.08
    FRESH_S = 0.5
    MAX_WAIT_S = 2.0
    SHARE = 0.6

    def __init__(self, probe, clock=time.monotonic):
        self.probe = probe
        self.clock = clock
        self.best_ns = float("inf")
        self.waited = 0.0
        self.start = clock()
        self.fast_at = None

    def wait(self):
        began = self.clock()
        if self.fast_at is not None and began - self.fast_at < self.FRESH_S:
            return
        while True:
            ns = self.probe()
            if ns is None:
                return
            self.best_ns = min(self.best_ns, ns)
            now = self.clock()
            if ns <= self.best_ns * self.TOLERANCE:
                self.fast_at = now
            if (self.fast_at == now or now - began >= self.MAX_WAIT_S
                    or self.waited + now - began
                    >= self.SHARE * (now - self.start)):
                self.waited += now - began
                return


class Tally:
    """Operations attempted and failed; a failed unit is never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, what, error):
        """Count one operation; `error` is None when it passed its check."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.reasons.append(f"{what}: {error}")
        return error is None
