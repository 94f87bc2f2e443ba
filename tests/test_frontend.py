"""Front-end tests: WAV loading, framing, MFCC, and prosodic summaries."""

import math
import struct
import wave

import numpy as np
import pytest

from emoverify.errors import FormatError
from emoverify.frontend import (
    BLOCK_SIZE,
    D_PROSODIC,
    DURATION,
    ENERGY_FLOOR,
    F0_MEAN,
    F0_RANGE,
    F0_SLOPE,
    LOG_ENERGY_MEAN,
    LOG_ENERGY_SLOPE,
    FRAME_MS,
    N_FILTERS,
    OVERLAP_MS,
    PITCH_CHUNK,
    PITCH_MAX,
    PITCH_MIN,
    VOICED_FRACTION,
    VOICING_THRESHOLD,
    AudioClip,
    extract,
    frame_signal,
    _mel_filterbank,
    _next_pow2,
    load_wav,
    mfcc,
    prosody,
)

RATE = 16000


def write_wav(path, samples_i16, rate=RATE, channels=1, width=2):
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(channels)
        wav.setsampwidth(width)
        wav.setframerate(rate)
        wav.writeframes(samples_i16.tobytes())


def wav_bytes(rate, n_samples=4):
    """A mono 16-bit WAV file image whose header declares any rate, 0 Hz included."""
    data = bytes(2 * n_samples)
    fmt = struct.pack("<HHIIHH", 1, 1, rate, 2 * rate, 2, 16)
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data))
    return b"RIFF" + struct.pack("<I", len(body) + len(data)) + body + data


def sine_clip(freq, seconds=1.0, amp=0.5, rate=RATE):
    t = np.arange(int(seconds * rate)) / rate
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), rate)


class TestLoadWav:
    def test_silence(self, tmp_path):
        p = tmp_path / "z.wav"
        write_wav(p, np.zeros(RATE, dtype="<i2"))
        clip = load_wav(p)
        assert clip.sample_rate == RATE
        assert clip.samples.shape == (RATE,)
        assert np.all(clip.samples == 0.0)

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "st.wav"
        write_wav(p, np.zeros(400, dtype="<i2"), channels=2)
        with pytest.raises(FormatError, match="channels=2"):
            load_wav(p)

    def test_wrong_width_rejected(self, tmp_path):
        p = tmp_path / "w8.wav"
        write_wav(p, np.zeros(200, dtype=np.uint8), width=1)
        with pytest.raises(FormatError, match="sample_width"):
            load_wav(p)

    def test_not_a_wav_rejected(self, tmp_path):
        p = tmp_path / "junk.wav"
        p.write_bytes(b"not audio at all")
        with pytest.raises(FormatError, match="WAV"):
            load_wav(p)

    @pytest.mark.parametrize("data", [b"not audio at all", b"RIFF", b"",
                                      pytest.param(wav_bytes(rate=0), id="0hz")])
    def test_rejection_names_the_file(self, tmp_path, data):
        p = tmp_path / "junk.wav"
        p.write_bytes(data)
        with pytest.raises(FormatError) as info:
            load_wav(p)
        assert str(info.value).startswith(f"{p}: not a readable WAV file")

    @pytest.mark.parametrize("keep", [1000, 1001])
    def test_truncated_samples_name_the_file(self, tmp_path, keep):
        # the header declares 8000 samples (16000 bytes); the file keeps 956 or 957 of them
        p = tmp_path / "cut.wav"
        write_wav(p, np.zeros(RATE // 2, dtype="<i2"))
        p.write_bytes(p.read_bytes()[:keep])
        with pytest.raises(FormatError) as info:
            load_wav(p)
        assert str(info.value) == (
            f"{p}: truncated WAV file: 16000 sample bytes declared, {keep - 44} left")

    def test_full_scale_sine_amplitude(self, tmp_path):
        t = np.arange(RATE) / RATE
        ints = np.round(32767 * np.sin(2 * np.pi * 200.0 * t)).astype("<i2")
        p = tmp_path / "s.wav"
        write_wav(p, ints)
        clip = load_wav(p)
        np.testing.assert_array_equal(clip.samples, ints.astype(np.float64) / 32768.0)
        assert abs(np.abs(clip.samples).max() - 1.0) <= 1.0 / 32768.0


class TestFraming:
    def test_one_second_gives_141_frames(self):
        frames = frame_signal(AudioClip(np.zeros(RATE), RATE))
        assert frames.shape == (141, 256)

    def test_zero_clip_gives_zero_frames(self):
        frames = frame_signal(AudioClip(np.zeros(1000), RATE))
        assert np.all(frames == 0.0)

    def test_constant_clip_pre_emphasis(self):
        c = 0.42
        frames = frame_signal(AudioClip(np.full(600, c), RATE))
        assert frames[0, 0] == c  # first sample has no predecessor
        rest = np.concatenate([frames[0, 1:], frames[1:].ravel()])
        np.testing.assert_allclose(rest, 0.03 * c, rtol=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            frame_signal(AudioClip(np.zeros(100), RATE))

    def test_frame_count_formula(self):
        for n in [256, 300, 1000, 5000]:
            frames = frame_signal(AudioClip(np.zeros(n), RATE))
            assert frames.shape[0] == (n - 256) // 112 + 1

    def test_8khz_geometry(self):
        # 16 ms frames of 128 samples, overlapping by 9 ms (72), so a 56-sample hop
        for n in [128, 500, 8000]:
            pair = extract(AudioClip(np.random.default_rng(n).normal(0, 0.1, n), 8000))
            t = (n - 128) // 56 + 1
            assert pair.acoustic.shape == (t, 13)
            assert pair.prosodic.shape[0] == math.ceil(t / 10)
        assert frame_signal(AudioClip(np.zeros(500), 8000)).shape == ((500 - 128) // 56 + 1, 128)

    @pytest.mark.parametrize("rate", [1, 31, 56, 60, 93])
    def test_rate_with_zero_hop_rejected(self, rate):
        with pytest.raises(ValueError, match=f"sample rate {rate} Hz is too low"):
            frame_signal(AudioClip(np.zeros(1000), rate))

    @pytest.mark.parametrize("rate", [32, 55, 94, 156])
    def test_rate_with_frames_under_three_samples_rejected(self, rate):
        # 1- and 2-sample frames have a hop but give the same cepstra for any input
        with pytest.raises(ValueError, match=f"^sample rate {rate} Hz is too low: 16 ms frames"):
            frame_signal(AudioClip(np.zeros(1000), rate))

    @pytest.mark.parametrize("rate, shape", [(157, (49, 3))])
    def test_lowest_rates_with_a_hop_still_frame(self, rate, shape):
        assert frame_signal(AudioClip(np.zeros(100), rate)).shape == shape
        cepstra = extract(AudioClip(np.random.default_rng(0).normal(0, 0.1, rate), rate)).acoustic
        assert np.ptp(cepstra[:, 1:], axis=0).max() > 1.0  # the cepstra follow the input


class TestMfcc:
    def test_silent_frame_high_coefficients_exactly_zero(self):
        out = mfcc(np.zeros((4, 256)), RATE)
        assert out.shape == (4, 13)
        assert np.all(out[:, 1:] == 0.0)

    def test_output_finite_and_shaped(self):
        rng = np.random.default_rng(0)
        out = mfcc(rng.normal(size=(7, 256)), RATE)
        assert out.shape == (7, 13)
        assert np.all(np.isfinite(out))

    def test_200hz_sine_peaks_at_nearest_filter(self):
        t = np.arange(256) / RATE
        frame = np.sin(2 * np.pi * 200.0 * t)[None, :]

        # independent filterbank oracle straight from the DFT bins
        def mel(f):
            return 2595.0 * math.log10(1.0 + f / 700.0)

        def hz(m):
            return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

        edges = [hz(mel(RATE / 2) * k / (N_FILTERS + 1)) for k in range(N_FILTERS + 2)]
        spectrum = np.abs(np.fft.rfft(frame[0] * np.hamming(256), 256)) ** 2
        freqs = np.fft.rfftfreq(256, 1.0 / RATE)
        oracle = np.zeros(N_FILTERS)
        for i in range(N_FILTERS):
            lo, ce, hi = edges[i], edges[i + 1], edges[i + 2]
            for f, p in zip(freqs, spectrum):
                if lo <= f <= ce and ce > lo:
                    oracle[i] += p * (f - lo) / (ce - lo)
                elif ce < f <= hi:
                    oracle[i] += p * (hi - f) / (hi - ce)

        # the pipeline's filterbank; each filter's centre is the bin its row peaks at
        bank = _mel_filterbank(N_FILTERS, 256, RATE)
        centers = freqs[np.argmax(bank, axis=1)]
        nearest = int(np.argmin(np.abs(centers - 200.0)))
        assert int(np.argmax(oracle)) == nearest

        energies = spectrum @ bank.T
        assert int(np.argmax(energies)) == nearest
        np.testing.assert_allclose(energies, oracle, rtol=1e-9)

    def test_scaling_leaves_high_coefficients_unchanged(self):
        rng = np.random.default_rng(4)
        frames = rng.normal(0.0, 0.3, size=(5, 256))  # loud enough that no floor engages
        base = mfcc(frames, RATE)
        scaled = mfcc(3.7 * frames, RATE)
        np.testing.assert_allclose(scaled[:, 1:], base[:, 1:], atol=1e-9)
        c0_shift = scaled[:, 0] - base[:, 0]
        np.testing.assert_allclose(c0_shift, c0_shift[0], atol=1e-9)


class TestProsody:
    def test_200hz_sine_block_features(self):
        frames = frame_signal(sine_clip(200.0))
        out = prosody(frames, RATE)
        assert np.all(out[:, F0_MEAN] >= 198.0) and np.all(out[:, F0_MEAN] <= 202.0)
        np.testing.assert_allclose(out[:, F0_SLOPE], 0.0, atol=0.05)
        assert np.all(out[:, VOICED_FRACTION] == 1.0)

    def test_silence_block_features(self):
        out = prosody(np.zeros((12, 256)), RATE)
        assert np.all(out[:, [F0_MEAN, F0_SLOPE, F0_RANGE]] == 0.0)
        assert np.all(out[:, VOICED_FRACTION] == 0.0)
        assert out[0, DURATION] == 10 and out[1, DURATION] == 2

    def test_chirp_has_positive_slope(self):
        n = 256 + 9 * 112  # exactly one block of 10 frames
        t = np.arange(n) / RATE
        dur = n / RATE
        f0, f1 = 150.0, 250.0
        x = np.sin(2 * np.pi * (f0 * t + (f1 - f0) / (2 * dur) * t * t))
        frames = frame_signal(AudioClip(x, RATE))
        assert frames.shape[0] == 10
        out = prosody(frames, RATE)
        assert out.shape[0] == 1

        # oracle: least-squares slope of the true instantaneous frequency
        # sampled at each frame's center
        centers = (np.arange(10) * 112 + 128) / RATE
        true_f = f0 + (f1 - f0) * centers / dur
        pos = np.arange(10) - 4.5
        oracle_slope = pos @ (true_f - true_f.mean()) / (pos @ pos)
        assert oracle_slope > 0
        assert out[0, F0_SLOPE] > 0
        np.testing.assert_allclose(out[0, F0_SLOPE], oracle_slope, rtol=0.2)

    def test_scaling_invariance(self):
        frames = frame_signal(sine_clip(220.0, seconds=0.2))
        a = prosody(frames, RATE)
        b = prosody(4.0 * frames, RATE)
        np.testing.assert_allclose(b[:, F0_MEAN], a[:, F0_MEAN], rtol=1e-9)
        np.testing.assert_array_equal(b[:, VOICED_FRACTION], a[:, VOICED_FRACTION])
        np.testing.assert_allclose(
            b[:, LOG_ENERGY_MEAN] - a[:, LOG_ENERGY_MEAN], math.log(4.0), atol=1e-12
        )


def _frame_pitch(frame: np.ndarray, rate: int) -> tuple[float, bool]:
    """The per-frame pitch search that `prosody` batches, kept as its reference."""
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


def _slope(positions, values):
    if values.shape[0] < 2:
        return 0.0
    t = positions - positions.mean()
    return float(t @ (values - values.mean()) / (t @ t))


def reference_prosody(frames, rate):
    """`prosody` one frame at a time, with scalar log-energy."""
    frames = np.asarray(frames, dtype=np.float64)
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


def harmonic_tone(f0, n, rate, amp=0.3):
    """Four harmonics at amplitudes 1, 1/2, 1/3, 1/4."""
    t = np.arange(n) / rate
    return amp * sum(np.sin(2 * np.pi * f0 * h * t) / h for h in range(1, 5))


def frame_geometry(rate):
    frame_len = round(FRAME_MS * rate / 1000)
    return frame_len, frame_len - round(OVERLAP_MS * rate / 1000)


class TestBatchedPitchMatchesReference:
    """The chunked pitch search gives the per-frame search's bits exactly."""

    @staticmethod
    def assert_matches(frames, rate):
        got = prosody(frames, rate)
        want = reference_prosody(frames, rate)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("rate", [157, 8000, 11025, 16000, 22050, 44100, 48000])
    @pytest.mark.parametrize("signal", ["noise", "tones", "silence", "single_frame"])
    def test_clip(self, rate, signal):
        rng = np.random.default_rng(rate)
        frame_len, hop = frame_geometry(rate)
        n = frame_len + (2 * PITCH_CHUNK + 10) * hop
        if signal == "noise":
            x = rng.normal(0.0, 0.1, n)
        elif signal == "tones":  # a voiced stretch at each of three pitches, with a little noise
            x = np.concatenate([harmonic_tone(f0, n // 3, rate) for f0 in (120.0, 210.0, 310.0)])
            x += rng.normal(0.0, 0.01, x.shape[0])
        elif signal == "silence":
            x = np.zeros(n)
        else:
            x = rng.normal(0.0, 0.1, frame_len)
        frames = frame_signal(AudioClip(x, rate))
        assert frames.shape[0] == 1 if signal == "single_frame" else frames.shape[0] > 2 * PITCH_CHUNK
        self.assert_matches(frames, rate)

    @pytest.mark.parametrize(
        "n_frames", [PITCH_CHUNK - 1, PITCH_CHUNK, PITCH_CHUNK + 1, 2 * PITCH_CHUNK + 7]
    )
    def test_frame_count_around_chunk_edges(self, n_frames):
        frame_len, hop = frame_geometry(RATE)
        n = frame_len + (n_frames - 1) * hop
        x = harmonic_tone(180.0, n, RATE) + np.random.default_rng(n_frames).normal(0.0, 0.05, n)
        frames = frame_signal(AudioClip(x, RATE))
        assert frames.shape[0] == n_frames
        self.assert_matches(frames, RATE)

    @pytest.mark.parametrize("rate", [157, 799, 800, 16000])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_frames_a_few_samples_wide(self, width, rate):
        frames = np.random.default_rng(width).normal(0.0, 0.3, (PITCH_CHUNK + 3, width))
        self.assert_matches(frames, rate)

    def test_log_energy_rounds_as_math_log(self):
        # numpy 2.4.6's vector np.log rounds frame 18's log-RMS here unlike math.log
        frames = np.random.default_rng(10).normal(0.0, 0.1, (PITCH_CHUNK + 1, 256))
        self.assert_matches(frames, RATE)

    def test_frame_layout_does_not_matter(self):
        frames = frame_signal(AudioClip(harmonic_tone(150.0, RATE // 2, RATE), RATE))
        assert np.array_equal(prosody(np.asfortranarray(frames), RATE), prosody(frames, RATE))


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="known pitch-tracker defect; a fix rewrites the golden record"
)
class TestKnownPitchDefects:
    """Correct pitch behaviour that the tracker does not have yet (ROADMAP known defects)."""

    def test_310hz_tone_reads_310hz_not_half(self):
        out = extract(AudioClip(harmonic_tone(310.0, RATE, RATE), RATE)).prosodic
        assert np.all(out[:, VOICED_FRACTION] == 1.0)
        np.testing.assert_allclose(out[:, F0_MEAN], 310.0, rtol=0.05)

    def test_100hz_tone_is_voiced(self):
        out = extract(AudioClip(harmonic_tone(100.0, RATE, RATE), RATE)).prosodic
        assert np.all(out[:, VOICED_FRACTION] == 1.0)
        np.testing.assert_allclose(out[:, F0_MEAN], 100.0, rtol=0.05)

    def test_white_noise_is_rarely_voiced(self):
        voiced = frames = 0.0
        for seed in range(20):
            noise = np.random.default_rng(seed).normal(0.0, 0.05, RATE)
            out = extract(AudioClip(noise, RATE)).prosodic
            voiced += out[:, VOICED_FRACTION] @ out[:, DURATION]
            frames += out[:, DURATION].sum()
        assert voiced < 0.01 * frames


class TestExtract:
    def test_one_second_silence_shapes(self):
        pair = extract(AudioClip(np.zeros(RATE), RATE))
        assert pair.acoustic.shape == (141, 13)
        assert pair.prosodic.shape == (15, 7)
        assert not pair.voiced_blocks.any()

    def test_single_frame_clip(self):
        pair = extract(AudioClip(np.zeros(256), RATE))
        assert pair.acoustic.shape[0] == 1
        assert pair.prosodic.shape[0] == 1

    def test_deterministic(self):
        clip = sine_clip(180.0, seconds=0.3)
        p1 = extract(clip)
        p2 = extract(clip)
        np.testing.assert_array_equal(p1.acoustic, p2.acoustic)
        np.testing.assert_array_equal(p1.prosodic, p2.prosodic)

    def test_block_count_law(self):
        rng = np.random.default_rng(8)
        for n in [256, 900, 2500, 7001]:
            clip = AudioClip(rng.normal(0, 0.1, size=n), RATE)
            pair = extract(clip)
            t = pair.acoustic.shape[0]
            assert pair.prosodic.shape[0] == -(-t // BLOCK_SIZE)

    def test_no_nan_for_odd_inputs(self):
        spike = np.zeros(1000)
        spike[500] = 1.0
        pair = extract(AudioClip(spike, RATE))
        assert np.all(np.isfinite(pair.acoustic))
        assert np.all(np.isfinite(pair.prosodic))
