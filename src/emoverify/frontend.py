"""Audio front-end producing the two observation streams.

Per-frame MFCC vectors form the acoustic stream.  A coarser-rate prosodic
stream summarizes pitch, energy, and duration over blocks of BLOCK_SIZE
frames, so one prosodic vector spans many acoustic frames.  The front end
is the paper's and fixed: the constants below set it, and the sample rate
is its only input that varies.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FormatError

PRE_EMPHASIS = 0.97
FRAME_MS = 16.0
OVERLAP_MS = 9.0
N_FILTERS = 24
N_CEPS = 13  # includes the 0th coefficient
ENERGY_FLOOR = 1e-10
BLOCK_SIZE = 10  # acoustic frames per prosodic block
PITCH_MIN = 60.0
PITCH_MAX = 400.0
VOICING_THRESHOLD = 0.3
MIN_FRAME_SAMPLES = 3  # shortest frame whose cepstra vary with the input

# prosodic feature columns
F0_MEAN = 0
F0_SLOPE = 1
F0_RANGE = 2
LOG_ENERGY_MEAN = 3
LOG_ENERGY_SLOPE = 4
VOICED_FRACTION = 5
DURATION = 6
D_PROSODIC = 7


@dataclass(frozen=True)
class AudioClip:
    """Mono PCM audio as floats in [-1, 1)."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


@dataclass(frozen=True)
class ObservationPair:
    """The two feature streams of one utterance.

    acoustic: (T, D) MFCC matrix.  prosodic: (T_p, 7) block summaries; the
    per-block voicing flag is derived from the voiced-fraction column.
    """

    acoustic: np.ndarray
    prosodic: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "acoustic", np.asarray(self.acoustic, dtype=np.float64))
        object.__setattr__(self, "prosodic", np.asarray(self.prosodic, dtype=np.float64))
        if self.acoustic.ndim != 2 or self.acoustic.shape[0] < 1:
            raise ValueError("acoustic stream must be a nonempty (T, D) matrix")
        if self.prosodic.ndim != 2 or self.prosodic.shape[0] < 1:
            raise ValueError("prosodic stream must be a nonempty (T_p, D_p) matrix")
        if not np.all(np.isfinite(self.acoustic)) or not np.all(np.isfinite(self.prosodic)):
            raise ValueError("feature streams must be finite")

    @property
    def voiced_blocks(self) -> np.ndarray:
        return self.prosodic[:, VOICED_FRACTION] > 0.0


def load_wav(path) -> AudioClip:
    """Read a mono 16-bit PCM RIFF/WAVE file; samples scaled to [-1, 1)."""
    try:
        with wave.open(str(path), "rb") as wav:
            if wav.getcomptype() != "NONE":
                raise FormatError(f"{path}: compression={wav.getcomptype()!r} unsupported")
            if wav.getnchannels() != 1:
                raise FormatError(f"{path}: channels={wav.getnchannels()} unsupported")
            if wav.getsampwidth() != 2:
                raise FormatError(f"{path}: sample_width={wav.getsampwidth() * 8} bits unsupported")
            rate = wav.getframerate()
            raw = wav.readframes(wav.getnframes())
    except (wave.Error, EOFError) as exc:  # EOFError: a file shorter than its RIFF header
        raise FormatError(f"{path}: not a readable WAV file: {exc}") from None
    if rate == 0:
        raise FormatError(f"{path}: not a readable WAV file: its header declares 0 Hz")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioClip(samples, rate)


def frame_signal(clip: AudioClip) -> np.ndarray:
    """Pre-emphasize the whole signal, then slice it into overlapping frames.

    Frames span round(FRAME_MS * rate / 1000) samples and advance by that
    less round(OVERLAP_MS * rate / 1000).  Returns (T, frame_length); any
    trailing samples short of a full frame are dropped so T depends on the
    length alone.  A rate so low that the hop rounds to 0 samples, or that
    a frame holds fewer than MIN_FRAME_SAMPLES samples, is a ValueError:
    every mel filter has zero weight on the FFT bins of a 1- or 2-sample
    frame, so its cepstra would be the same floor for any input.
    """
    x = clip.samples
    rate = clip.sample_rate
    frame_len = round(FRAME_MS * rate / 1000)
    hop = frame_len - round(OVERLAP_MS * rate / 1000)
    if hop < 1:
        raise ValueError(
            f"sample rate {rate} Hz is too low: {FRAME_MS:g} ms frames with "
            f"{OVERLAP_MS:g} ms overlap advance by {hop} samples"
        )
    if frame_len < MIN_FRAME_SAMPLES:
        raise ValueError(
            f"sample rate {rate} Hz is too low: {FRAME_MS:g} ms frames hold "
            f"{frame_len} samples, fewer than {MIN_FRAME_SAMPLES}"
        )
    if x.shape[0] < frame_len:
        raise ValueError(
            f"clip of {x.shape[0]} samples is shorter than one frame ({frame_len})"
        )
    y = np.empty_like(x)
    y[0] = x[0]
    y[1:] = x[1:] - PRE_EMPHASIS * x[:-1]
    n_frames = (x.shape[0] - frame_len) // hop + 1
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
    return y[idx]


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def _mel_filterbank(n_filters: int, nfft: int, rate: int) -> np.ndarray:
    """(n_filters, nfft//2 + 1) triangular weights on the mel scale."""
    edges = _mel_to_hz(np.linspace(0.0, _hz_to_mel(rate / 2.0), n_filters + 2))
    freqs = np.fft.rfftfreq(nfft, d=1.0 / rate)
    fb = np.zeros((n_filters, freqs.shape[0]))
    for i in range(n_filters):
        lo, center, hi = edges[i], edges[i + 1], edges[i + 2]
        rising = (freqs - lo) / (center - lo)
        falling = (hi - freqs) / (hi - center)
        fb[i] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


@lru_cache(maxsize=8)
def _dct_matrix(n_ceps: int, n_filters: int) -> np.ndarray:
    n = np.arange(n_filters)
    k = np.arange(n_ceps)[:, None]
    c = np.cos(np.pi * k * (2 * n + 1) / (2 * n_filters))
    c *= np.sqrt(2.0 / n_filters)
    c[0] = np.sqrt(1.0 / n_filters)
    return c


def mfcc(frames: np.ndarray, rate: int) -> np.ndarray:
    """(T, N_CEPS) cepstra: Hamming window, magnitude spectrum on a
    power-of-two FFT, triangular mel filterbank energies, floored log,
    DCT-II.

    Coefficients 1..D-1 come from the mean-removed log energies; this keeps
    them mathematically unchanged while making a constant frame (silence at
    the floor) yield exact zeros.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("frames must be a nonempty (T, L) matrix")
    frame_len = frames.shape[1]
    nfft = _next_pow2(frame_len)
    windowed = frames * np.hamming(frame_len)[None, :]
    mag = np.abs(np.fft.rfft(windowed, nfft, axis=1))
    energies = (mag * mag) @ _mel_filterbank(N_FILTERS, nfft, rate).T
    logmel = np.log(np.maximum(energies, ENERGY_FLOOR))

    dct = _dct_matrix(N_CEPS, N_FILTERS)
    centered = logmel - logmel.mean(axis=1, keepdims=True)
    centered[logmel.max(axis=1) == logmel.min(axis=1)] = 0.0
    out = np.empty((frames.shape[0], N_CEPS))
    out[:, 0] = logmel @ dct[0]
    out[:, 1:] = centered @ dct[1:].T
    return out


def _frame_pitch(frame: np.ndarray, rate: int) -> tuple[float, bool]:
    """F0 in Hz and a voicing decision for one frame.

    Normalized autocorrelation over the lags of PITCH_MIN..PITCH_MAX; the
    peak lag is refined by parabolic interpolation.  The lag ceiling is
    clipped to half the frame, so pitch floors below
    rate / (frame_length / 2) are not measurable at the frame size.
    """
    n = frame.shape[0]
    lag_lo = max(1, math.floor(rate / PITCH_MAX))
    lag_hi = min(math.ceil(rate / PITCH_MIN), n // 2)
    if lag_lo > lag_hi:
        return 0.0, False

    nfft = _next_pow2(2 * n)
    spec = np.fft.rfft(frame, nfft)
    raw = np.fft.irfft(spec * np.conj(spec), nfft)[:n]
    cs = np.concatenate([[0.0], np.cumsum(frame * frame)])
    top = min(lag_hi + 1, n - 1)
    lags = np.arange(1, top + 1)
    denom = np.sqrt((cs[n - lags] - cs[0]) * (cs[n] - cs[lags]))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(denom > 0.0, raw[lags] / denom, 0.0)

    window = r[lag_lo - 1 : lag_hi]
    k = lag_lo + int(np.argmax(window))
    peak = r[k - 1]
    if peak < VOICING_THRESHOLD:
        return 0.0, False
    delta = 0.0
    if 1 < k < top:
        left, mid, right = r[k - 2], r[k - 1], r[k]
        curve = left - 2.0 * mid + right
        if abs(curve) > 1e-12:
            delta = float(np.clip(0.5 * (left - right) / curve, -1.0, 1.0))
    return rate / (k + delta), True


def _slope(positions: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of values against their positions; 0 below two points."""
    if values.shape[0] < 2:
        return 0.0
    t = positions - positions.mean()
    return float(t @ (values - values.mean()) / (t @ t))


def prosody(frames: np.ndarray, rate: int) -> np.ndarray:
    """(T_p, 7) block summaries with T_p = ceil(T / BLOCK_SIZE).

    Per block: F0 mean/slope/range over voiced frames (zeros if none),
    log-energy mean/slope over all frames, voiced fraction, duration in
    frames.  The final partial block is kept.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("frames must be a nonempty (T, L) matrix")
    t_len = frames.shape[0]

    f0 = np.zeros(t_len)
    voiced = np.zeros(t_len, dtype=bool)
    log_e = np.empty(t_len)
    for t in range(t_len):
        f0[t], voiced[t] = _frame_pitch(frames[t], rate)
        rms = math.sqrt(float(np.mean(frames[t] * frames[t])))
        log_e[t] = math.log(max(rms, ENERGY_FLOOR))

    k = BLOCK_SIZE
    n_blocks = -(-t_len // k)
    out = np.zeros((n_blocks, D_PROSODIC))
    for b in range(n_blocks):
        sl = slice(b * k, min((b + 1) * k, t_len))
        v = voiced[sl]
        pos = np.flatnonzero(v).astype(np.float64)
        f = f0[sl][v]
        e = log_e[sl]
        if f.shape[0] > 0:
            out[b, F0_MEAN] = f.mean()
            out[b, F0_SLOPE] = _slope(pos, f)
            out[b, F0_RANGE] = f.max() - f.min()
        out[b, LOG_ENERGY_MEAN] = e.mean()
        out[b, LOG_ENERGY_SLOPE] = _slope(np.arange(e.shape[0], dtype=np.float64), e)
        out[b, VOICED_FRACTION] = v.mean()
        out[b, DURATION] = e.shape[0]
    return out


def extract(clip: AudioClip) -> ObservationPair:
    """Full front-end: framing plus both feature streams."""
    frames = frame_signal(clip)
    return ObservationPair(
        acoustic=mfcc(frames, clip.sample_rate),
        prosodic=prosody(frames, clip.sample_rate),
    )
