"""Test-side references for what radsim stores in a compact form or not at all.

Parseval's energy is computed as ``bench/checks.py`` computes it from a run's
spectrum; frame times are the window centres of :func:`radsim.spectral.stft`.
Library templates are spelled as format 2.0 stores them (``template_f64``) and
as 1.x stored them (``template_magnitudes``, a list of JSON numbers).
"""

from base64 import b64decode, b64encode

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
