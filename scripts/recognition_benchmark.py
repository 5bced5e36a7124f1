#!/usr/bin/env python3
"""Build a three-template signature library and score it on noisy probes.

Prints a confusion table for 50 probes per modulation class at the chosen
SNR plus the white-noise rejection rate, and can persist the library.
"""

import argparse
from collections import Counter

import numpy as np

from radsim.channel import ChannelParams, apply_channel
from radsim.codec import random_payload
from radsim.modulation import MODULATORS, CarrierSpec
from radsim.recognition import SignatureLibrary, classify, library_add, library_save
from radsim.signals import SampledSignal


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snr-db", type=float, default=15.0)
    parser.add_argument("--probes", type=int, default=50)
    parser.add_argument("--threshold", type=float, default=0.5)
    parser.add_argument("--save-library", help="also write the library JSON here")
    args = parser.parse_args()

    spec = CarrierSpec(2000.0, 1.0, 0.0, 48000.0)
    library = SignatureLibrary(fft_size=4096, sample_rate=48000.0)
    for label, seed in (("fsk", 1000), ("psk", 2000), ("ask", 3000)):
        template = MODULATORS[label](random_payload(seed, 1024, 250.0), spec)
        library = library_add(library, label, template, {"payload_seed": str(seed)})
    if args.save_library:
        library_save(library, args.save_library)
        print(f"library written to {args.save_library}")

    confusion = Counter()
    for i, label in enumerate(sorted(MODULATORS)):
        for k in range(args.probes):
            payload = random_payload(10_000 + i * 1000 + k, 256, 250.0)
            received = apply_channel(MODULATORS[label](payload, spec),
                                     ChannelParams(snr_db=args.snr_db, seed=20_000 + i * 1000 + k))
            confusion[(label, classify(received, library, args.threshold).label)] += 1

    total = args.probes * len(MODULATORS)
    correct = sum(confusion[(c, c)] for c in MODULATORS)
    print(f"accuracy at {args.snr_db:g} dB SNR, threshold {args.threshold:g}: "
          f"{correct}/{total} ({correct / total:.1%})")
    for (truth, predicted), count in sorted(confusion.items()):
        print(f"  {truth} -> {predicted}: {count}")

    rejected = 0
    for k in range(args.probes):
        noise = SampledSignal(48000.0, np.random.default_rng(90_000 + k).standard_normal(49_152))
        rejected += classify(noise, library, 0.8).label == "unknown"
    print(f"white-noise probes rejected at threshold 0.8: {rejected}/{args.probes}")


if __name__ == "__main__":
    main()
