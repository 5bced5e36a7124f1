"""Test-side references for what a spectrum's grid implies but radsim does not store.

Parseval's energy is computed as ``bench/checks.py`` computes it from a run's
spectrum; frame times are the window centres of :func:`radsim.spectral.stft`.
"""

import numpy as np


def parseval_energy(spectrum):
    """Sum of squared time samples that a one-sided magnitude spectrum implies."""
    m, n = spectrum.magnitudes, spectrum.fft_size
    edges = m[0] ** 2 + (m[-1] ** 2 if n % 2 == 0 else 0.0)
    interior = m[1:-1] if n % 2 == 0 else m[1:]
    return float(n * (edges + np.sum(interior ** 2) / 2.0))


def frame_times(gram):
    """Each spectrogram frame's window centre, in seconds."""
    starts = np.arange(gram.magnitudes.shape[0]) * gram.hop
    return (starts + gram.window_length / 2.0) / gram.sample_rate
