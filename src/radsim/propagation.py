"""Expected-infection dynamics of a self-replicating payload on a LAN.

Three views of the same process:

* a discrete recurrence for the expected infected count,
  ``E[n+1] = E[n] + (M/N) * E[n] * (1 - E[n]/N)``;
* its logistic closed form ``N / (1 + (N/X0 - 1) * exp(-n*M/N))``;
* an agent-based Monte Carlo simulation over uniformly random ordered
  communication pairs, used as an independent oracle.

N is the machine count, M the number of data communications per unit time,
X0 the initially infected count. The per-communication infection rule is:
the target becomes infected iff the source is infected and the target is
not. Pairs are drawn with replacement (the pair distribution is otherwise
unspecified); curve values are real-valued expectations, never rounded.

The recurrence view is a discrete logistic map: it stays monotone and
bounded by N only while M <= N. For larger M it can overshoot, and
iterating raises a domain error once the state leaves [0, N]. The closed
form is well behaved for any M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, check_int
from .signals import _MAX_SAMPLES

__all__ = [
    "PropagationParams",
    "expected_infected_closed_form",
    "step_recurrence",
    "simulate_curve",
    "inflection_time",
    "monte_carlo_propagation",
    "write_curve_csv",
]


@dataclass(frozen=True)
class PropagationParams:
    """Model parameters: machine count N, communications per interval M, seed count X0."""

    n_computers: int
    comms_per_interval: int
    initial_infected: int = 1

    def __post_init__(self):
        # The Monte Carlo oracle holds N flags and draws 2M values per step.
        check_int("n_computers", self.n_computers, 1, _MAX_SAMPLES)
        check_int("comms_per_interval", self.comms_per_interval, 1, _MAX_SAMPLES // 2)
        check_int("initial_infected", self.initial_infected, 1)
        if self.initial_infected > self.n_computers:
            raise ParameterError(
                f"initial_infected must lie in [1, {self.n_computers}], got {self.initial_infected}")


def expected_infected_closed_form(params: PropagationParams, n: float) -> float:
    """Logistic expected infected count at (integer or real) time n."""
    if n < 0:
        raise ParameterError(f"time step must be nonnegative, got {n}")
    big_n = params.n_computers
    x0 = params.initial_infected
    return big_n / (1.0 + (big_n / x0 - 1.0) * math.exp(-n * params.comms_per_interval / big_n))


def step_recurrence(params: PropagationParams, current: float) -> float:
    """One step of the expectation recurrence; fixed points at 0 and N."""
    big_n = params.n_computers
    if not 0 <= current <= big_n:
        raise ParameterError(f"current must lie in [0, {big_n}], got {current}")
    rate = params.comms_per_interval / big_n
    return current + rate * current * (1.0 - current / big_n)


def simulate_curve(params: PropagationParams, n_max: int, method: str = "closed_form") -> np.ndarray:
    """Expected-infection trajectory: float64 values indexed by step n = 0..n_max."""
    check_int("n_max", n_max, 0, _MAX_SAMPLES - 1)
    steps = np.arange(n_max + 1)  # allocated first: a count no memory holds fails here, at once
    if method == "closed_form":
        values = np.array([expected_infected_closed_form(params, int(n)) for n in steps])
    elif method == "recurrence":
        values = np.empty(n_max + 1)
        values[0] = float(params.initial_infected)
        for i in range(n_max):
            values[i + 1] = step_recurrence(params, values[i])
    else:
        raise ParameterError(f"unknown method {method!r} (expected 'closed_form' or 'recurrence')")
    return values


def inflection_time(params: PropagationParams) -> float:
    """Time at which the closed form reaches N/2: (N/M) * ln((N - X0)/X0), N - X0 exact."""
    big_n, x0 = params.n_computers, params.initial_infected
    if x0 >= big_n:
        raise ParameterError("no inflection point: initial_infected >= n_computers")
    return (big_n / params.comms_per_interval) * math.log((big_n - x0) / x0)


# Most random values one block of steps draws at once (a block holds at least one step).
_BLOCK_DRAWS = 1 << 12


def _step_pairs(rng: np.random.Generator, n: int, m: int, block_steps: int):
    """Endless (sources, targets) lists, one per step, drawn ``block_steps`` at a time.

    One ``integers`` call over a ``(block_steps, 2m)`` array of bounds
    ``[n]*m + [n-1]*m`` yields the same values, and leaves the generator in the
    same state, as ``block_steps`` rounds of ``integers(0, n, m)`` then
    ``integers(0, n - 1, m)``; a target at or above its source is shifted up by
    one, so it never equals the source.
    """
    bounds = np.repeat([n, n - 1], m)
    while True:
        pairs = rng.integers(0, bounds, size=(block_steps, 2 * m))
        sources, targets = pairs[:, :m], pairs[:, m:]
        targets += targets >= sources
        yield from zip(sources.tolist(), targets.tolist())


def monte_carlo_propagation(params: PropagationParams, seed: int, n_max: int,
                            trials: int) -> np.ndarray:
    """Agent simulation: float64 mean infected count per step n = 0..n_max across seeded trials.

    Each step draws ``comms_per_interval`` uniformly random ordered pairs
    (source != target, with replacement) and applies them sequentially, so an
    infection can propagate onward within the same interval. A trial draws
    nothing once every machine is infected. Deterministic for a fixed seed.

    The pairs are drawn a block of steps at a time, one ``integers`` call per
    block, from a single stream shared by all trials: a trial that saturates
    inside a block leaves the block's remaining steps to the next trial, which
    is where a draw of one step at a time would have put them, so every curve
    is the one that per-step draws give. A block holds at most
    ``_BLOCK_DRAWS`` values but always at least one step, so the draws take
    O(M) memory whatever ``n_max``. The infected flags are one Python list
    of N entries, allocated once; a trial clears only the machines it infected.
    """
    check_int("trials", trials, 1)
    check_int("n_max", n_max, 0, _MAX_SAMPLES - 1)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    n = params.n_computers
    m = params.comms_per_interval
    x0 = params.initial_infected
    steps = _step_pairs(rng, n, m, max(1, _BLOCK_DRAWS // (2 * m)))
    totals = np.zeros(n_max + 1, dtype=np.float64)
    infected = [False] * n
    for _ in range(trials):
        hits = list(range(x0))  # the machines infected in this trial
        for i in hits:
            infected[i] = True
        counts = [x0]
        # Saturated (always so when N < 2, since x0 >= 1): no more draws.
        while len(hits) < n and len(counts) <= n_max:
            sources, targets = next(steps)
            for s, t in zip(sources, targets):
                if infected[s] and not infected[t]:
                    infected[t] = True
                    hits.append(t)
            counts.append(len(hits))
        for i in hits:
            infected[i] = False
        totals[:len(counts)] += counts
        totals[len(counts):] += len(hits)
    return totals / trials


def write_curve_csv(curve: np.ndarray, path) -> None:
    """CSV of values indexed by step: header ``n,expected_infected``, full float precision."""
    lines = ["n,expected_infected"]
    lines.extend(f"{n},{v!r}" for n, v in enumerate(curve.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")
