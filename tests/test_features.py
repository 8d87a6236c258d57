import io
import wave as wavemod

import numpy as np
import pytest

from diarkit import features
from diarkit.errors import FormatError, InvalidInputError
from mfcc_reference import reference_mfcc

# Reference rows for a 1 s, 440 Hz half-scale sine at 8 kHz, produced by the
# step-by-step script in mfcc_reference.py. Regenerate with that script only.
TONE_ROW_0 = np.array([
    -7.881181872543, 1.889269982122, -1.192144364859, -5.171871984146, -5.66615425605,
    -3.91434373626, -0.754531253914, 1.805585479481, 2.876003246967, 2.174155047871,
    0.599832712514, -0.870946092184, -1.441855443492, -1.135678945043, -0.411904052062,
    0.102802728276, 0.185952603634, -0.048169136849, -0.221120565966, -0.119882993897,
    0.176669997751, 0.395080042835, 0.327047576561,
])
TONE_ROW_50 = np.array([
    -2.512992176489e+01, 9.933459319309e+00, -2.200197687618e-01, -5.758113948909e+00,
    -7.200929638128e+00, -5.066850021363e+00, -7.307707944204e-01, 3.149117808925e+00,
    4.807764518671e+00, 3.621337680987e+00, 8.937301930365e-01, -1.578012962314e+00,
    -2.357243523805e+00, -1.564789105671e+00, -1.865791567034e-01, 7.021180440325e-01,
    6.065551097270e-01, 2.461244372296e-03, -1.739765559567e-01, 2.411225677182e-01,
    1.076212927365e+00, 1.601313706906e+00, 1.127963971425e+00,
])


def tone(freq=440.0, dur_s=1.0, rate=8000, amp=0.5):
    t = np.arange(int(round(dur_s * rate))) / rate
    return amp * np.sin(2 * np.pi * freq * t)


class TestComputeMfcc:
    def test_frame_count_1p5s(self):
        feats = features.compute_mfcc(tone(dur_s=1.5))
        assert feats.shape == (150, 23)

    def test_frame_count_is_rounded_sample_ratio(self):
        rng = np.random.default_rng(11)
        for n in [200, 201, 239, 240, 241, 999, 1000, 12041, 12039]:
            wave = rng.standard_normal(n) * 0.1
            feats = features.compute_mfcc(wave)
            assert feats.shape[0] == int(np.floor(n / 80 + 0.5)), n

    def test_tone_matches_reference_rows(self):
        feats = features.compute_mfcc(tone())
        np.testing.assert_allclose(feats[0], TONE_ROW_0, atol=1e-6)
        np.testing.assert_allclose(feats[50], TONE_ROW_50, atol=1e-6)

    def test_matches_stepwise_reference_on_random_signal(self):
        rng = np.random.default_rng(7)
        sig = rng.uniform(-0.5, 0.5, size=2521)
        got = features.compute_mfcc(sig)
        want = reference_mfcc(sig)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_zero_signal_rows_identical_and_floored(self):
        feats = features.compute_mfcc(np.zeros(4000))
        assert np.isfinite(feats).all()
        assert np.ptp(feats, axis=0).max() == 0.0
        # every filter energy sits at the floor; c0 = log(floor) * sqrt(23)
        assert feats[0, 0] == pytest.approx(np.log(1e-10) * np.sqrt(23.0))

    def test_deterministic_bytes(self):
        sig = tone(dur_s=0.7)
        a = features.compute_mfcc(sig)
        b = features.compute_mfcc(sig)
        assert a.tobytes() == b.tobytes()

    def test_rejects_short_signal(self):
        with pytest.raises(InvalidInputError):
            features.compute_mfcc(np.zeros(199))


class TestSlidingCmn:
    def test_constant_input_goes_to_zero(self):
        feats = np.full((40, 5), 3.25)
        out = features.sliding_cmn(feats)
        assert np.abs(out).max() == 0.0

    def test_two_frame_example(self):
        feats = np.array([[1.0], [3.0]])
        out = features.sliding_cmn(feats, window_frames=300)
        np.testing.assert_allclose(out, [[-1.0], [1.0]])

    def test_matches_windowed_mean_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((500, 3))
        out = features.sliding_cmn(x, window_frames=300)
        # independent loop: full-length centered window, shifted inside at edges
        total, window = 500, 300
        for t in range(total):
            lo = min(max(0, t - window // 2), total - window)
            want = x[t] - x[lo : lo + window].mean(axis=0)
            np.testing.assert_allclose(out[t], want, atol=1e-10)

    def test_short_utterance_mean_is_zero(self):
        rng = np.random.default_rng(4)
        for total in (2, 150, 299, 300):
            x = rng.standard_normal((total, 4)) * 5
            out = features.sliding_cmn(x, window_frames=300)
            assert np.abs(out.mean(axis=0)).max() < 1e-9

    def test_rejects_bad_window(self):
        feats = np.zeros((5, 2))
        with pytest.raises(InvalidInputError):
            features.sliding_cmn(feats, window_frames=0)


class TestSegmentSpeech:
    def test_three_second_region(self):
        marks = [features.SadMark("c", 0.0, 3.0)]
        segs = features.segment_speech(marks)
        spans = [(s.start_s, s.end_s) for s in segs]
        assert spans == [(0.0, 1.5), (0.75, 2.25), (1.5, 3.0)]

    def test_short_region_yields_itself(self):
        segs = features.segment_speech([features.SadMark("c", 0.0, 1.0)])
        assert [(s.start_s, s.end_s) for s in segs] == [(0.0, 1.0)]

    def test_too_short_region_dropped(self):
        assert features.segment_speech([features.SadMark("c", 0.0, 0.3)]) == []

    def test_truncated_tail_kept(self):
        segs = features.segment_speech([features.SadMark("c", 0.0, 3.2)])
        spans = [(s.start_s, s.end_s) for s in segs]
        assert spans == [(0.0, 1.5), (0.75, 2.25), (1.5, 3.0), (2.25, 3.2)]

    def test_overlap_between_consecutive_segments(self):
        segs = features.segment_speech([features.SadMark("c", 0.0, 10.0)])
        for a, b in zip(segs, segs[1:]):
            if b.end_s - b.start_s == 1.5:  # all but a truncated tail
                assert b.start_s - a.start_s == pytest.approx(0.75)
                assert a.end_s - b.start_s == pytest.approx(0.75)

    def test_region_coverage(self):
        # every region at least min_len long is fully covered by its segments
        marks = [features.SadMark("c", 1.2, 7.9), features.SadMark("c", 9.0, 9.8)]
        segs = features.segment_speech(marks)
        for mark in marks:
            inside = [s for s in segs if s.start_s >= mark.start_s - 1e-9 and s.end_s <= mark.end_s + 1e-9]
            assert inside[0].start_s == pytest.approx(mark.start_s)
            assert inside[-1].end_s == pytest.approx(mark.end_s)
            for a, b in zip(inside, inside[1:]):
                assert b.start_s < a.end_s  # no gaps

    def test_frame_ranges(self):
        segs = features.segment_speech([features.SadMark("c", 0.0, 3.0)])
        assert segs[0].frame_range == (0, 150)
        assert segs[1].frame_range == (75, 225)
        assert segs[2].frame_range == (150, 300)

    def test_overlapping_marks_merged(self):
        marks = [features.SadMark("c", 0.0, 2.0), features.SadMark("c", 1.0, 3.0)]
        segs = features.segment_speech(marks)
        assert [(s.start_s, s.end_s) for s in segs] == [(0.0, 1.5), (0.75, 2.25), (1.5, 3.0)]

    def test_multiple_conversations_sorted(self):
        marks = [features.SadMark("b", 0.0, 1.0), features.SadMark("a", 0.0, 1.0)]
        segs = features.segment_speech(marks)
        assert [s.conversation_id for s in segs] == ["a", "b"]


class TestStrideWindows:
    def test_exact_fit(self):
        assert features.stride_windows(0.0, 1.5, 1.5, 0.75, 0.5) == [(0.0, 1.5)]

    def test_frames_variant(self):
        wins = features.stride_windows(0, 300, 150, 75, 50)
        assert wins == [(0, 150), (75, 225), (150, 300)]

    def test_rejects_bad_shift(self):
        with pytest.raises(InvalidInputError):
            features.stride_windows(0.0, 1.0, 1.5, 0.0, 0.5)


class TestWavIo:
    def test_round_trip(self, tmp_path):
        wave_in = tone(dur_s=0.25)
        path = tmp_path / "t.wav"
        features.write_wav(path, wave_in)
        wave_out = features.read_wav(path)
        with wavemod.open(str(path), "rb") as w:
            assert w.getframerate() == 8000
        assert wave_out.dtype == np.float64
        np.testing.assert_allclose(wave_out, wave_in, atol=1.0 / 32768)

    @pytest.mark.parametrize("channels,width,rate", [(2, 2, 8000), (1, 1, 8000), (1, 2, 16000)])
    def test_rejects_other_layouts(self, tmp_path, channels, width, rate):
        path = tmp_path / "bad.wav"
        with wavemod.open(str(path), "wb") as w:
            w.setnchannels(channels)
            w.setsampwidth(width)
            w.setframerate(rate)
            w.writeframes(b"\x00" * (width * channels * 64))
        with pytest.raises(FormatError):
            features.read_wav(path)

    def test_rejects_non_wav(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"definitely not RIFF data")
        with pytest.raises(FormatError):
            features.read_wav(path)


class TestFeatureIo:
    def test_round_trip_exact_in_f32(self, tmp_path):
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((37, 23))
        path = tmp_path / "x.fea"
        features.write_features(path, feats)
        back = features.read_features(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, feats.astype(np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.fea"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="bad magic"):
            features.read_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.fea"
        features.write_features(path, np.zeros((4, 3)))
        raw = path.read_bytes()
        # cut after the magic, the frame count and the dimension, inside the
        # payload, and one byte short of the end
        for cut in (4, 8, 12, 30, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError, match="truncated"):
                features.read_features(path)
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="bad magic"):
            features.read_features(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.fea"
        features.write_features(path, np.zeros((4, 3)))
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(FormatError, match="3 trailing bytes"):
            features.read_features(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values(self, tmp_path, bad):
        path = tmp_path / "x.fea"
        feats = np.zeros((4, 3))
        feats[2, 1] = bad
        features.write_features(path, feats)
        with pytest.raises(FormatError, match="non-finite"):
            features.read_features(path)


class TestSadIo:
    def test_round_trip(self, tmp_path):
        marks = [features.SadMark("conv1", 0.0, 60.0), features.SadMark("conv2", 1.5, 3.25)]
        path = tmp_path / "sad.txt"
        features.write_sad(path, marks)
        assert features.read_sad(path) == marks

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "sad.txt"
        path.write_text("conv1 0.0 1.0\nconv2 oops 2.0\n")
        with pytest.raises(FormatError, match="sad.txt:2"):
            features.read_sad(path)

    def test_rejects_inverted_interval(self, tmp_path):
        path = tmp_path / "sad.txt"
        path.write_text("conv1 5.0 1.0\n")
        with pytest.raises(FormatError, match=":1"):
            features.read_sad(path)

    @pytest.mark.parametrize("start,end", [("0.0", "inf"), ("nan", "1.0"), ("0.0", "nan"),
                                           ("inf", "inf")])
    def test_rejects_non_finite_times(self, tmp_path, start, end):
        path = tmp_path / "sad.txt"
        path.write_text(f"conv1 0.0 1.0\nconv1 {start} {end}\n")
        with pytest.raises(FormatError, match="sad.txt:2: bad SAD mark"):
            features.read_sad(path)
