"""Test-side references for what radsim stores in a compact form or not at all.

Parseval's energy is computed as ``bench/checks.py`` computes it from a run's
spectrum; bin frequencies are ``np.fft.rfftfreq`` of a spectrum's grid; frame
times are the window centres of :func:`radsim.spectral.stft`.
Library templates are spelled as format 2.0 stores them (``template_f64``) and
as 1.x stored them (``template_magnitudes``, a list of JSON numbers).
The propagation model is simulated agent by agent, as the paper states it,
and by numpy's geometric sampler on the count chain's waits; its infected
count's exact distribution is pushed through the chain one pair at a time.
A composed signal is decoded as runs decoded it before the receivers took
``composed``: the gain-scaled carrier subtracted, then the bare receiver.
The channel and the SNR fit are computed as radsim computed them with a new
array for each step, which the in-place forms must match bit for bit.
"""

import math
from base64 import b64decode, b64encode

import numpy as np

from radsim.modulation import DEMODULATORS
from radsim.signals import SampledSignal


def parseval_energy(spectrum):
    """Sum of squared time samples that a one-sided magnitude spectrum implies."""
    m, n = spectrum.magnitudes, spectrum.fft_size
    edges = m[0] ** 2 + (m[-1] ** 2 if n % 2 == 0 else 0.0)
    interior = m[1:-1] if n % 2 == 0 else m[1:]
    return float(n * (edges + np.sum(interior ** 2) / 2.0))


def bin_frequencies(spectrum):
    """Every bin's frequency on a spectrum's grid."""
    return np.fft.rfftfreq(spectrum.fft_size, 1 / spectrum.sample_rate)


def frame_times(gram):
    """Each spectrogram frame's window centre, in seconds."""
    starts = np.arange(gram.magnitudes.shape[0]) * gram.hop
    return (starts + gram.window_length / 2.0) / gram.sample_rate


def f64_text(values) -> str:
    """``values`` as a 2.0 library entry's ``template_f64``: base64 of little-endian float64."""
    return b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def template_values(entry) -> list:
    """The template a 2.0 library entry stores, as a list of floats."""
    return np.frombuffer(b64decode(entry["template_f64"]), dtype="<f8").tolist()


def as_version_1(doc, minor=1):
    """A 2.0 library document rewritten in place as a 1.x one, as radsim 1.x wrote it."""
    doc["version"] = {"major": 1, "minor": minor}
    for entry in doc["entries"]:
        entry["template_magnitudes"] = template_values(entry)
        del entry["template_f64"]
    return doc


def subtracted_demodulate(scheme, received, carrier, gain, received_carrier, bit_rate):
    """The bare ``scheme`` receiver's bits for ``received`` less ``gain`` times ``carrier``."""
    # received - gain * carrier, bit for bit, with one signal-sized array.
    residual = carrier.samples * -gain
    residual += received.samples
    to_demodulate = SampledSignal(received.sample_rate, residual)
    return DEMODULATORS[scheme](to_demodulate, received_carrier, bit_rate)


def channel_samples(samples, params):
    """``gain*x + sqrt(variance)*default_rng(seed).standard_normal(n)``; ``gain*x`` if noiseless."""
    scaled = params.linear_gain * samples
    if params.noise_power is not None:
        variance = params.noise_power
    else:
        variance = float(np.mean(scaled ** 2)) / 10.0 ** (params.snr_db / 10.0)
    if variance > 0.0:
        rng = np.random.default_rng(params.seed)
        scaled = scaled + math.sqrt(variance) * rng.standard_normal(len(samples))
    return scaled


def fitted_snr_db(clean, noisy):
    """The SNR in dB after a least-squares gain fit, with the fit, residual and squares apart."""
    gain = float(np.dot(clean, noisy)) / float(np.dot(clean, clean))
    fitted = gain * clean
    residual = noisy - fitted
    noise_power = float(np.mean(residual ** 2))
    if noise_power == 0.0:
        return math.inf
    return 10.0 * math.log10(float(np.mean(fitted ** 2)) / noise_power)


def reference_monte_carlo(params, seed, n_max, trials):
    """The agent model machine by machine: mean infected count per step over ``trials``.

    Each step draws ``comms_per_interval`` ordered pairs (two ``integers``
    calls; a target at or above its source is shifted up by one, so it never
    equals the source) and applies them in turn to an array of infected flags.
    """
    rng = np.random.default_rng(seed)
    n = params.n_computers
    m = params.comms_per_interval
    totals = np.zeros(n_max + 1, dtype=np.float64)
    for _ in range(trials):
        infected = np.zeros(n, dtype=bool)
        infected[: params.initial_infected] = True
        count = params.initial_infected
        totals[0] += count
        for step in range(1, n_max + 1):
            if count < n and n >= 2:
                sources = rng.integers(0, n, size=m)
                targets = rng.integers(0, n - 1, size=m)
                targets = targets + (targets >= sources)
                for s, t in zip(sources, targets):
                    if infected[s] and not infected[t]:
                        infected[t] = True
                        count += 1
            totals[step] += count
    return totals / trials


def geometric_monte_carlo(params, seed, n_max, trials):
    """The count chain's waits from ``Generator.geometric``, a block of trials per call.

    The k-th infection after the X0 initial ones falls in step
    ``ceil((w_1 + ... + w_k) / M)`` with ``w_j ~ Geometric(p(X0 + j - 1))``;
    a trial draws ``min(N - X0, n_max * M)`` waits, all in one row.
    """
    n, m, x0 = params.n_computers, params.comms_per_interval, params.initial_infected
    hist = np.zeros(n_max + 2, dtype=np.int64)
    states = np.arange(x0, x0 + min(n - x0, n_max * m))
    p = states / n * ((n - states) / (n - 1))
    rng = np.random.default_rng(seed)
    if states.size:
        rows = max(1, (1 << 13) // states.size)
        for done in range(0, trials, rows):
            waits = rng.geometric(p, size=(min(rows, trials - done), states.size))
            steps = np.ceil(np.cumsum(waits, axis=1, dtype=np.float64) / m)
            hist += np.bincount(np.minimum(steps, n_max + 1).astype(np.intp).ravel(),
                                minlength=n_max + 2)
    return (np.cumsum(hist[:-1]) + x0 * trials) / trials


def exact_count_distribution(params, n_max):
    """P(X_n = x) for steps n = 0..n_max (rows) and counts x = 0..N (columns).

    One pair moves the count from x to x + 1 with probability
    ``x (N - x) / (N (N - 1))`` and leaves it otherwise: a step is
    ``comms_per_interval`` such two-diagonal updates.
    """
    n, x0 = params.n_computers, params.initial_infected
    x = np.arange(n + 1.0)
    p = x * (n - x) / (n * (n - 1.0)) if n > 1 else np.zeros(n + 1)
    dist = np.zeros(n + 1)
    dist[x0] = 1.0
    rows = [dist]
    for _ in range(n_max):
        for _ in range(params.comms_per_interval):
            moved = dist * p
            dist = dist - moved
            dist[1:] += moved[:-1]
        rows.append(dist)
    return np.array(rows)


def exact_mean_and_variance(params, n_max):
    """The infected count's exact mean and variance at steps 0..n_max."""
    dist = exact_count_distribution(params, n_max)
    x = np.arange(params.n_computers + 1.0)
    mean = dist @ x
    return mean, dist @ x ** 2 - mean ** 2
