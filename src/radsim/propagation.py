"""Expected-infection dynamics of a self-replicating payload on a LAN.

Three views of the same process:

* a discrete recurrence for the expected infected count,
  ``E[n+1] = E[n] + (M/N) * E[n] * (1 - E[n]/N)``;
* its logistic closed form ``N / (1 + (N/X0 - 1) * exp(-n*M/N))``;
* a Monte Carlo simulation of the agent model, used as an independent oracle.

N is the machine count, M the number of data communications per unit time,
X0 the initially infected count. The agent model draws M uniformly random
ordered communication pairs (source != target, with replacement) per step and
applies them in turn: the target becomes infected iff the source is infected
and the target is not. Curve values are real-valued expectations, never
rounded.

The agent model's infected count X is a Markov chain on 0..N. Whichever X
machines are infected, a pair infects with probability
``p(X) = X (N - X) / (N (N - 1))`` (X infected sources times N - X
susceptible targets, over N (N - 1) ordered pairs), and the pair draws are
independent, so which machines are infected never matters. From the
infection that makes X machines infected, the number of pairs up to the next
infection is therefore Geometric(p(X)), independent of the other waits, and
a trial is fixed by its waits alone. The Monte Carlo draws each wait by
inversion from one standard exponential.

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
        # A Monte Carlo trial holds up to min(N - X0, n_max * M) waits, so N is
        # bounded as an array length is; M is bounded at half that.
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


# Most waits one block of trials draws at once (a block holds at least one trial,
# or one chunk of a trial that needs more).
_BLOCK_VALUES = 1 << 13


def _wait_rates(start: int, stop: int, n: int) -> np.ndarray:
    """``-log(1 - p(X))`` for X = start..stop-1: a wait at X is ``ceil(E / rate)``, E ~ Exp(1)."""
    states = np.arange(start, stop)
    p = states / n * ((n - states) / (n - 1))  # N - X exact: int64 holds every count
    np.log1p(np.negative(p, out=p), out=p)
    return np.negative(p, out=p)


def monte_carlo_propagation(params: PropagationParams, seed: int, n_max: int,
                            trials: int) -> np.ndarray:
    """Agent simulation: float64 mean infected count per step n = 0..n_max across seeded trials.

    Each trial is drawn as the waits of the count chain (see the module
    docstring): the k-th infection after the X0 initial ones falls at pair
    index ``T = w_1 + ... + w_k``, that is in step ``ceil(T / M)``, with
    ``w_j ~ Geometric(p(X0 + j - 1))``. Only the first
    ``min(N - X0, n_max * M)`` infections can fall within n_max steps, since
    each takes at least one pair, so a trial draws that many waits and no
    more. Deterministic for a fixed seed.

    A wait is drawn by inversion, ``ceil(E / -log(1 - p))`` from one standard
    exponential E (Devroye 1986, section X.2), with the logarithm taken once
    per state. This is how numpy's ``Generator.geometric`` draws any
    p < 1/3, so for N >= 5, where p(X) <= N / (4 (N - 1)) < 1/3, the curve is
    the one ``geometric`` draws would give, unless a wait passes 2**63
    (``geometric`` clamps it there) or numpy's vector ``log1p`` and the C
    library's differ in the last place just where a quotient meets an integer.

    Trials are drawn a block of rows at a time, one ``standard_exponential``
    call per block into one reused buffer, from one stream: the values come
    row by row, so the curve does not depend on the block size. A block
    holds at most ``_BLOCK_VALUES`` waits but always at least one trial; a
    trial that needs more is drawn in chunks of ``_BLOCK_VALUES`` waits, each
    chunk's pair indices continuing from the last, so memory stays bounded
    by the block whatever N and M are. The pair indices are summed in
    float64, which cannot wrap; they are exact while below 2**53.
    """
    check_int("trials", trials, 1, _MAX_SAMPLES)
    check_int("n_max", n_max, 0, _MAX_SAMPLES - 1)
    check_int("seed", seed, 0)
    n = params.n_computers
    m = params.comms_per_interval
    x0 = params.initial_infected
    totals = np.empty(n_max + 1)  # allocated first: a count no memory holds fails here, at once
    hist = np.zeros(n_max + 2, dtype=np.int64)  # infections per step; n_max + 1 is "later"
    count = min(n - x0, n_max * m)  # waits per trial
    rng = np.random.default_rng(seed)
    if count:  # else saturated (X0 = N) or no step: the curve is X0 throughout
        rows = max(1, _BLOCK_VALUES // count)
        cols = min(count, _BLOCK_VALUES)
        rates = _wait_rates(x0, x0 + count, n) if count == cols else None
        buffer = np.empty(min(rows, trials) * cols)
        for done in range(0, trials, rows):
            block_rows = min(rows, trials - done)
            reached = 0.0  # pair index of the last infection drawn in this trial
            for start in range(x0, x0 + count, cols):
                stop = min(start + cols, x0 + count)
                if count > cols:  # chunks of one trial: each makes its own rates
                    rates = _wait_rates(start, stop, n)
                block = buffer[:block_rows * (stop - start)].reshape(block_rows, stop - start)
                rng.standard_exponential(out=block)
                np.divide(block, rates, out=block)
                np.ceil(block, out=block)
                block[0, 0] += reached
                np.cumsum(block, axis=1, out=block)
                reached = block[0, -1]
                block /= m
                np.ceil(block, out=block)
                np.minimum(block, n_max + 1, out=block)
                hist += np.bincount(block.astype(np.intp).ravel(), minlength=n_max + 2)
    np.cumsum(hist[:-1], out=totals)
    totals += x0 * trials
    return totals / trials


def write_curve_csv(curve: np.ndarray, path) -> None:
    """CSV of values indexed by step: header ``n,expected_infected``, full float precision."""
    lines = ["n,expected_infected"]
    lines.extend(f"{n},{v!r}" for n, v in enumerate(curve.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")
