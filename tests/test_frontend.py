"""Front-end tests: WAV loading, framing, MFCC, and prosodic summaries."""

import math
import struct
import wave

import numpy as np
import pytest

from emoverify.errors import FormatError
from emoverify.frontend import (
    BLOCK_SIZE,
    DURATION,
    F0_MEAN,
    F0_RANGE,
    F0_SLOPE,
    LOG_ENERGY_MEAN,
    N_FILTERS,
    VOICED_FRACTION,
    AudioClip,
    extract,
    frame_signal,
    _mel_filterbank,
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
