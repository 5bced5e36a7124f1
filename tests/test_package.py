"""The package's public surface: what ``import radsim`` gives a user."""

import dataclasses
import inspect

import radsim

# One name a line, sorted, so adding or removing a public name is a one-line diff.
PUBLIC_NAMES = [
    "BitStream",
    "CarrierSpec",
    "ChannelParams",
    "ClassificationResult",
    "ConfigurationError",
    "ConflictError",
    "ExperimentConfig",
    "ExperimentReport",
    "FeatureVector",
    "ParameterError",
    "ParseError",
    "PropagationParams",
    "RadsimError",
    "SampledSignal",
    "ShapeError",
    "SignatureEntry",
    "SignatureLibrary",
    "SpectralPeak",
    "Spectrogram",
    "Spectrum",
    "apply_channel",
    "ask_demodulate",
    "ask_modulate",
    "classify",
    "compose_emitted",
    "expected_infected_closed_form",
    "extract_features",
    "fft_magnitude",
    "find_peaks",
    "fsk_demodulate",
    "fsk_modulate",
    "generate_carrier",
    "hex_to_bits",
    "inflection_time",
    "library_add",
    "library_load",
    "library_save",
    "manchester_decode",
    "manchester_encode",
    "measure_snr",
    "monte_carlo_propagation",
    "psk_demodulate",
    "psk_modulate",
    "random_payload",
    "read_signal",
    "read_spectrum",
    "run_experiment",
    "samples_per_bit",
    "simulate_curve",
    "spectral_correlation",
    "step_recurrence",
    "stft",
    "write_signal",
    "write_spectrum",
]


def test_public_names_are_pinned():
    # Submodules are left out: which of them are attributes depends on what was imported.
    names = sorted(n for n, v in vars(radsim).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert names == PUBLIC_NAMES


# The public members of the spectrum types, pinned the same way.
SPECTRUM_MEMBERS = ["bin_width", "fft_size", "magnitudes", "sample_rate"]
SPECTROGRAM_MEMBERS = ["hop", "magnitudes", "sample_rate", "window", "window_length"]


def public_members(cls):
    return sorted({f.name for f in dataclasses.fields(cls)}
                  | {n for n in dir(cls) if not n.startswith("_")})


def test_spectrum_members_are_pinned():
    assert public_members(radsim.Spectrum) == SPECTRUM_MEMBERS
    assert public_members(radsim.Spectrogram) == SPECTROGRAM_MEMBERS
