"""Extract both feature streams from a WAV file.

A short synthetic vowel (200 Hz fundamental with a falling energy
contour) stands in for real speech; the front end turns it into an MFCC
matrix at frame rate and a prosodic summary matrix at block rate.
"""

import tempfile
import wave
from pathlib import Path

import numpy as np

from emoverify import extract, load_wav

rate = 16000
t = np.arange(int(0.8 * rate)) / rate

# 200 Hz fundamental plus two harmonics, fading out over the clip
rng = np.random.default_rng(7)
signal = (
    np.sin(2 * np.pi * 200.0 * t)
    + 0.5 * np.sin(2 * np.pi * 400.0 * t)
    + 0.25 * np.sin(2 * np.pi * 600.0 * t)
)
signal *= np.linspace(1.0, 0.3, t.size)
signal += 0.01 * rng.standard_normal(t.size)
pcm = np.clip(signal / np.max(np.abs(signal)), -1.0, 1.0)

path = Path(tempfile.mkdtemp(prefix="emoverify_demo_")) / "vowel.wav"
with wave.open(str(path), "wb") as fp:
    fp.setnchannels(1)
    fp.setsampwidth(2)
    fp.setframerate(rate)
    fp.writeframes((pcm * 32767).astype(np.int16).tobytes())

clip = load_wav(path)
print(f"loaded {path.name}: {clip.samples.size} samples at {clip.sample_rate} Hz")

pair = extract(clip)
print(f"acoustic stream: {pair.acoustic.shape} (frames x cepstra)")
print(f"prosodic stream: {pair.prosodic.shape} (blocks x summaries)")

# prosodic columns: F0 mean/slope/range, log-energy mean/slope,
# voiced fraction, duration
voiced = pair.voiced_blocks
f0_mean = pair.prosodic[voiced, 0]
print(f"voiced blocks: {int(voiced.sum())} of {voiced.size}")
print(f"estimated F0: {f0_mean.mean():.1f} Hz (true 200.0)")
print(f"log-energy trend: {pair.prosodic[0, 3]:.2f} first block, "
      f"{pair.prosodic[-1, 3]:.2f} last")
