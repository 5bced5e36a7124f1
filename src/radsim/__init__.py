"""radsim: deterministic simulation of a radiated data-injection signal chain.

Submodules: propagation (infection-expectation model), codec (payloads and
line coding), modulation (ASK/FSK/PSK), channel (attenuation + AWGN),
spectral (FFT/STFT/peaks), recognition (features, signature library,
classification), pipeline (end-to-end experiments), cli.
"""

from .channel import ChannelParams, apply_channel, measure_snr
from .codec import BitStream, hex_to_bits, manchester_decode, manchester_encode, random_payload
from .errors import (ConflictError, ConfigurationError, ParameterError, ParseError,
                     RadsimError, ShapeError)
from .modulation import (CarrierSpec, ask_demodulate, ask_modulate, compose_emitted,
                         fsk_demodulate, fsk_modulate, generate_carrier,
                         psk_demodulate, psk_modulate, samples_per_bit)
from .pipeline import ExperimentConfig, ExperimentReport, run_experiment
from .propagation import (PropagationParams, expected_infected_closed_form, inflection_time,
                          monte_carlo_propagation, simulate_curve, step_recurrence)
from .recognition import (ClassificationResult, FeatureVector, SignatureEntry,
                          SignatureLibrary, classify, extract_features, library_add,
                          library_load, library_save, spectral_correlation)
from .signals import SampledSignal, read_signal, write_signal
from .spectral import (SpectralPeak, Spectrogram, Spectrum, fft_magnitude, find_peaks,
                       read_spectrum, stft, write_spectrum)

__version__ = "0.1.0"
