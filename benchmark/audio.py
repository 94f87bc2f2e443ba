"""Synthesized speech-like WAV files with known pitch, for the ingest workload.

An utterance alternates short noise gaps with steady-pitch voiced
segments.  A voiced segment is a four-harmonic tone (amplitudes 1, 1/2,
1/3, 1/4) with 10 ms onset and offset ramps, so the F0 of every frame well
inside it is known exactly.  Everything is drawn from a seeded generator
except the fault tones, which are fixed inputs.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RATE = 16000
HARMONICS = (1.0, 1 / 2, 1 / 3, 1 / 4)
RAMP = int(0.010 * RATE)

# Seeded voiced segments keep F0 inside the band the pitch tracker measures
# correctly (it fails below 125 Hz and halves many tones above 250 Hz; see
# FAULT_TONES), so the failed share is the same on every seed.
SEEDED_F0_HZ = (135.0, 240.0)
SEEDED_DURATION_S = (0.5, 2.5)
GAP_S = (0.04, 0.12)
VOICED_S = (0.25, 0.6)

# Fixed inputs hit by the two known pitch-tracker faults: a low voice whose
# period exceeds the half-frame lag ceiling, and a tone whose doubled
# period wins the global autocorrelation argmax.
FAULT_TONES = (("fault_lag_ceiling_100hz", 100.0), ("fault_octave_310hz", 310.0))
FAULT_TONE_S = 1.0


@dataclass(frozen=True)
class Segment:
    """Samples [start, end) of one steady-pitch voiced segment."""

    start: int
    end: int
    f0: float


@dataclass(frozen=True)
class Utterance:
    name: str
    n_samples: int
    segments: tuple[Segment, ...]
    amplitude: float
    noise_seed: int
    fault: bool


def _seconds(rng, bounds) -> int:
    return int(rng.uniform(*bounds) * RATE)


def plan_seeded(name: str, duration_s: float, rng) -> Utterance:
    """Gaps and voiced segments filling duration_s, with seeded F0s."""
    n = int(duration_s * RATE)
    segments = []
    pos = _seconds(rng, GAP_S)
    while True:
        length = _seconds(rng, VOICED_S)
        if pos + length > n - int(GAP_S[0] * RATE):
            break
        segments.append(Segment(pos, pos + length, float(rng.uniform(*SEEDED_F0_HZ))))
        pos += length + _seconds(rng, GAP_S)
    amplitude = float(rng.uniform(0.2, 0.5))
    return Utterance(name, n, tuple(segments), amplitude, int(rng.integers(2**32)), fault=False)


def plan_fault(name: str, f0: float) -> Utterance:
    """One steady tone between two 50 ms gaps; no seeded part at all."""
    gap = int(0.05 * RATE)
    n = int(FAULT_TONE_S * RATE)
    return Utterance(name, n, (Segment(gap, n - gap, f0),), 0.3, noise_seed=0, fault=True)


def plan_corpus(seed: int, n_seeded: int) -> list[Utterance]:
    """n_seeded utterances with stratified durations plus the fault tones.

    Durations are spread evenly over SEEDED_DURATION_S with a seeded
    offset inside each stratum, so the length mix, and with it the cost
    of a round, barely moves between seeds.  The order is seeded too.
    """
    rng = np.random.default_rng([seed, 0xA0D10])
    lo, hi = SEEDED_DURATION_S
    utterances = [
        plan_seeded(f"utt{i:02d}", lo + (hi - lo) * (i + rng.uniform()) / n_seeded, rng)
        for i in range(n_seeded)
    ]
    utterances += [plan_fault(name, f0) for name, f0 in FAULT_TONES]
    order = rng.permutation(len(utterances))
    return [utterances[i] for i in order]


def render(utt: Utterance) -> np.ndarray:
    """Float samples in [-1, 1): a low noise floor, louder noise in the
    gaps, and the ramped harmonic tone in each voiced segment."""
    rng = np.random.default_rng(utt.noise_seed)
    x = rng.normal(0.0, 0.02, utt.n_samples)
    for seg in utt.segments:
        n = seg.end - seg.start
        t = np.arange(n) / RATE
        tone = sum(a * np.sin(2 * np.pi * seg.f0 * (k + 1) * t) for k, a in enumerate(HARMONICS))
        envelope = np.ones(n)
        envelope[:RAMP] = np.linspace(0.0, 1.0, RAMP)
        envelope[-RAMP:] = np.linspace(1.0, 0.0, RAMP)
        noise_floor = rng.normal(0.0, 0.001, n)
        x[seg.start:seg.end] = utt.amplitude * envelope * tone / sum(HARMONICS) + noise_floor
    return np.clip(x, -1.0, 32767 / 32768)


def write_wav(path: Path, samples: np.ndarray) -> None:
    """16-bit mono PCM at RATE."""
    pcm = np.round(samples * 32768.0).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(RATE)
        wav.writeframes(pcm.tobytes())
