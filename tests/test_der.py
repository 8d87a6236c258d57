"""DER scorer tests: frozen hand arithmetic, invariances, a brute-force
assignment oracle for the speaker mapping, an independent 10 ms raster scorer,
and pinned results over random timelines."""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from diarkit.der import (
    DerResult,
    TimelineEntry,
    build_hypothesis,
    by_conversation,
    compute_der,
    der_report,
    read_rttm,
    read_speaker_counts,
    speaker_counts,
    write_rttm,
)
from diarkit.errors import FormatError, InvalidInputError
from diarkit.features import SadMark, Segment
from blas_kernels import PIN_KERNELS
from der_mapping import optimal_speaker_mapping


def _tl(conv, *spans):
    return [TimelineEntry(conv, a, b, s) for a, b, s in spans]


# ------------------------------------------------------------ frozen arithmetic

def test_der_zero_when_hypothesis_equals_reference():
    ref = _tl("c", (0.0, 4.0, "A"), (4.0, 8.0, "B"))
    hyp = _tl("c", (0.0, 4.0, "x"), (4.0, 8.0, "y"))
    sad = [SadMark("c", 0.0, 8.0)]
    r = compute_der(ref, hyp, sad)
    assert r.der == 0.0
    assert r.scored_time_s == 7.5  # only the A->B switch at t=4 is collared
    assert r.missed_time_s == r.false_alarm_time_s == r.speaker_error_time_s == 0.0


def test_der_half_for_single_label_hypothesis():
    ref = _tl("c", (0.0, 4.0, "A"), (4.0, 8.0, "B"))
    hyp = _tl("c", (0.0, 8.0, "x"))
    sad = [SadMark("c", 0.0, 8.0)]
    r = compute_der(ref, hyp, sad)
    assert r.scored_time_s == 7.5
    assert r.speaker_error_time_s == 3.75  # x maps to one side, misses the other
    assert r.missed_time_s == 0.0
    assert r.false_alarm_time_s == 0.0
    assert abs(r.der - 0.5) <= 1e-9


def test_der_false_alarm_case():
    ref = _tl("c", (0.0, 4.0, "A"))
    hyp = _tl("c", (0.0, 4.0, "x"), (4.5, 5.5, "y"))
    sad = [SadMark("c", 0.0, 6.0)]
    r = compute_der(ref, hyp, sad)
    # one speaker, so no transitions and no collar; y is pure false alarm
    assert r.scored_time_s == 4.0
    assert r.false_alarm_time_s == 1.0
    assert r.missed_time_s == r.speaker_error_time_s == 0.0
    assert r.der == 0.25


def test_der_overlap_excluded_and_miss_counted():
    ref = _tl("c", (0.0, 4.0, "A"), (3.0, 5.0, "B"))
    hyp = _tl("c", (0.0, 2.0, "x"))
    sad = [SadMark("c", 0.0, 5.0)]
    # overlap [3,4] is unscored; transitions at 3 and 4 put collars
    # [2.75,3.25] and [3.75,4.25]; scored speech = [0,2.75] + [4.25,5]
    r = compute_der(ref, hyp, sad)
    assert r.scored_time_s == 3.5
    assert r.missed_time_s == 1.5
    assert r.der == pytest.approx(1.5 / 3.5, abs=1e-12)


def test_der_hypothesis_outside_sad_is_not_scored():
    ref = _tl("c", (0.0, 4.0, "A"))
    hyp = _tl("c", (0.0, 6.0, "x"))
    sad = [SadMark("c", 0.0, 4.0)]
    assert compute_der(ref, hyp, sad).der == 0.0


@pytest.mark.parametrize("hyp", [[], _tl("c", (4.2, 4.5, "x")), _tl("c", (0.0, 9.0, "x"))])
def test_der_is_zero_when_nothing_is_scored(hyp):
    # the only speech lies inside the collar of the A -> B change at 4.31 s
    ref = _tl("c", (0.0, 4.31, "A"), (4.31, 9.0, "B"))
    r = compute_der(ref, hyp, [SadMark("c", 4.2, 4.5)])
    assert r == DerResult(0.0, 0.0, 0.0, 0.0, 0.0)


def test_der_false_alarm_without_scored_reference_has_undefined_der():
    """Pure false alarm is reported as such; its DER, a ratio over no
    reference time, is NaN."""
    ref = _tl("c", (0.0, 1.0, "A"))
    hyp = _tl("c", (2.0, 3.0, "x"))
    r = compute_der(ref, hyp, [SadMark("c", 2.0, 3.0)])
    assert (r.scored_time_s, r.speaker_error_time_s, r.missed_time_s) == (0.0, 0.0, 0.0)
    assert r.false_alarm_time_s == 1.0
    assert math.isnan(r.der)
    assert compute_der(ref, [], [SadMark("c", 2.0, 3.0)]).der == 0.0
    # SAD that misses the reference entirely, with the hypothesis inside it
    r = compute_der(_tl("c", (5.0, 6.0, "A")), _tl("c", (0.0, 4.0, "x")), [SadMark("c", 0.0, 4.0)])
    assert (r.scored_time_s, r.false_alarm_time_s) == (0.0, 4.0) and math.isnan(r.der)


def test_der_extra_label_inside_reference_speech_is_not_false_alarm():
    # false alarm is hypothesis time with no reference speaker at all
    ref = _tl("c", (0.0, 4.0, "A"))
    hyp = _tl("c", (0.0, 4.0, "x"), (1.0, 2.0, "y"))
    r = compute_der(ref, hyp, [SadMark("c", 0.0, 4.0)])
    assert r.false_alarm_time_s == 0.0
    assert r.der == 0.0


def test_der_collar_monotone_in_scored_time():
    rng = np.random.default_rng(30)
    for _ in range(30):
        ref, sad = _random_reference(rng)
        hyp = _random_hypothesis(rng, sad[0].end_s)
        prev = None
        for collar in (0.0, 0.1, 0.25, 0.5):
            r = compute_der(ref, hyp, sad, collar_s=collar)
            if prev is not None:
                assert r.scored_time_s <= prev
            prev = r.scored_time_s


@pytest.mark.parametrize("collar", [-0.1, float("nan"), float("inf")])
def test_der_rejects_collar_not_finite_and_nonnegative(collar):
    ref = _tl("c", (0.0, 2.0, "A"), (2.0, 4.0, "B"))
    with pytest.raises(InvalidInputError, match=r"collar must be in \[0, inf\)"):
        compute_der(ref, ref, [SadMark("c", 0.0, 4.0)], collar_s=collar)


def test_der_identity_components_sum():
    rng = np.random.default_rng(31)
    for _ in range(20):
        ref, sad = _random_reference(rng)
        hyp = _random_hypothesis(rng, sad[0].end_s)
        r = compute_der(ref, hyp, sad)
        total = r.missed_time_s + r.false_alarm_time_s + r.speaker_error_time_s
        assert r.der == total / r.scored_time_s


# --------------------------------------------------------- random invariances

def _random_reference(rng, conv="c"):
    n_spk = int(rng.integers(2, 5))
    t, entries = 0.0, []
    for _ in range(int(rng.integers(4, 9))):
        dur = float(rng.integers(60, 300)) / 100.0
        spk = f"S{int(rng.integers(0, n_spk))}"
        entries.append(TimelineEntry(conv, t, t + dur, spk))
        t += dur
    return entries, [SadMark(conv, 0.0, t)]


def _random_hypothesis(rng, total_s, conv="c"):
    t, entries = 0.0, []
    while t < total_s - 0.2:
        dur = min(float(rng.integers(50, 250)) / 100.0, total_s - t)
        entries.append(TimelineEntry(conv, t, t + dur, f"h{int(rng.integers(0, 3))}"))
        t += dur
    return entries


def test_der_self_is_zero_and_relabeling_is_free():
    rng = np.random.default_rng(32)
    for _ in range(100):
        ref, sad = _random_reference(rng)
        assert compute_der(ref, ref, sad).der == 0.0

        hyp = _random_hypothesis(rng, sad[0].end_s)
        base = compute_der(ref, hyp, sad)
        names = sorted({e.speaker for e in hyp})
        shuffled = list(names)
        rng.shuffle(shuffled)
        rename = dict(zip(names, shuffled))
        renamed = [e._replace(speaker=rename[e.speaker]) for e in hyp]
        assert compute_der(ref, renamed, sad) == base


def test_mapping_matches_permutation_search():
    rng = np.random.default_rng(33)
    for _ in range(50):
        ref, sad = _random_reference(rng)
        hyp = _random_hypothesis(rng, sad[0].end_s)
        scored = [(0.0, sad[0].end_s)]
        mapping = optimal_speaker_mapping(ref, hyp, scored)

        # independent overlap accounting on a 10 ms raster
        units = int(round(sad[0].end_s * 100))
        refs = sorted({e.speaker for e in ref})
        hyps = sorted({e.speaker for e in hyp})
        grid = {}
        for names, entries in ((refs, ref), (hyps, hyp)):
            for s in names:
                grid[s] = np.zeros(units, dtype=bool)
            for e in entries:
                grid[e.speaker][int(round(e.start_s * 100)):int(round(e.end_s * 100))] = True
        overlap = np.array([[int(np.sum(grid[r] & grid[h])) for h in hyps] for r in refs])

        achieved = sum(overlap[refs.index(r), hyps.index(h)] for h, r in mapping.items())
        padded = list(range(len(refs))) + [None] * len(hyps)
        best = max(
            sum(overlap[ri, j] for j, ri in enumerate(assign) if ri is not None)
            for assign in itertools.permutations(padded, len(hyps))
        )
        assert achieved == best


def test_mapping_prefers_larger_overlap():
    ref = _tl("c", (0.0, 3.0, "A"), (3.0, 4.0, "B"))
    hyp = _tl("c", (0.0, 4.0, "x"))
    assert optimal_speaker_mapping(ref, hyp, [(0.0, 4.0)]) == {"x": "A"}


# ------------------------------------------------------------ pinned results

def _pinned_case(rng, collar_s):
    """Reference turns that may overlap or leave gaps, a hypothesis (sometimes
    empty, sometimes self-overlapping), and 1-4 SAD regions that may overlap;
    times on a 0.5 ms grid."""
    length = int(rng.integers(10_000, 60_000))  # 0.5 ms steps

    def turns(prefix, n_names, empty_prob):
        if rng.random() < empty_prob:
            return []
        t, out = int(rng.integers(0, 2_000)), []
        while t < length:
            end = min(t + int(rng.integers(200, 8_000)), length)
            if end <= t:
                break
            out.append(TimelineEntry("c", t / 2000, end / 2000,
                                     f"{prefix}{int(rng.integers(0, n_names))}"))
            roll = rng.random()
            if roll < 0.3:    # next turn starts before this one ends
                t = max(t + 1, end - int(rng.integers(1, 2_000)))
            elif roll < 0.6:  # silence before the next turn
                t = end + int(rng.integers(1, 3_000))
            else:
                t = end
        return out

    ref = turns("S", int(rng.integers(1, 5)), 0.0)
    hyp = turns("h", int(rng.integers(1, 5)), 0.1)
    sad = []
    for _ in range(int(rng.integers(1, 5))):
        a, b = sorted(int(x) for x in rng.integers(0, length + 1, size=2))
        sad.append(SadMark("c", a / 2000, (b + 1) / 2000))
    return ref, hyp, sad, collar_s


def _pinned_line(ref, hyp, sad, collar_s):
    try:
        r = compute_der(ref, hyp, sad, collar_s=collar_s)
    except InvalidInputError as exc:
        return f"raise {exc}"
    return " ".join(float(v).hex() for v in (r.scored_time_s, r.speaker_error_time_s,
                                             r.missed_time_s, r.false_alarm_time_s, r.der))


# SHA-256 of the per-case result lines over 240 seeded cases, 60 per collar;
# pins every DerResult field (as float.hex) and every error message
DER_RESULTS_SHA256 = "9fbe9137a41a2db12175d9ef4d6f2052ecf64470c18dfbf66c5936f75e2ad67f"


def test_der_results_are_pinned():
    rng = np.random.default_rng(2105)
    lines = [_pinned_line(*_pinned_case(rng, (0.0, 0.1, 0.25, 0.5)[i % 4])) for i in range(240)]
    assert sum(l.startswith("raise") for l in lines) < 40
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DER_RESULTS_SHA256, PIN_KERNELS


# ------------------------------------------------------- raster DER oracle

def _raster_der(ref, hyp, sad, collar_s, frames):
    """Score on a 10 ms raster, one frame at a time, with nothing shared with
    the scorer: drop SAD silence, frames within collar_s of a point where the
    reference changes from one non-empty speaker set to another, and frames
    with two or more reference speakers. Returns scored, miss, false-alarm and
    speaker-error frame counts; speaker error assumes a non-overlapping
    hypothesis and takes the best one-to-one label mapping by permutation
    search."""
    def raster(entries):
        grid = {}
        for e in entries:
            row = grid.setdefault(e.speaker, np.zeros(frames, dtype=bool))
            row[int(round(e.start_s * 100)):int(round(e.end_s * 100))] = True
        return grid

    ref_grid, hyp_grid = raster(ref), raster(hyp)
    sad_grid = raster([TimelineEntry("c", m.start_s, m.end_s, "") for m in sad])[""]
    ref_sets = [frozenset(s for s, row in ref_grid.items() if row[i]) for i in range(frames)]
    hyp_sets = [frozenset(s for s, row in hyp_grid.items() if row[i]) for i in range(frames)]
    assert all(len(h) <= 1 for h in hyp_sets)

    scored = sad_grid.copy()
    c = int(round(collar_s * 100))
    for p in range(1, frames):
        if ref_sets[p - 1] and ref_sets[p] and ref_sets[p - 1] != ref_sets[p]:
            scored[max(0, p - c):p + c] = False
    for i in range(frames):
        if len(ref_sets[i]) >= 2:
            scored[i] = False

    refs, hyps = sorted(ref_grid), sorted(hyp_grid)
    overlap = np.zeros((len(refs), len(hyps)), dtype=int)
    n_scored = miss = fa = both = 0
    for i in np.flatnonzero(scored):
        r, h = ref_sets[i], hyp_sets[i]
        n_scored += bool(r)
        miss += bool(r and not h)
        fa += bool(h and not r)
        if r and h:
            both += 1
            overlap[refs.index(next(iter(r))), hyps.index(next(iter(h)))] += 1
    padded = list(range(len(refs))) + [None] * len(hyps)
    best = max(sum(overlap[ri, j] for j, ri in enumerate(assign) if ri is not None)
               for assign in itertools.permutations(padded, len(hyps)))
    return n_scored, miss, fa, both - best


def _raster_case(rng):
    """10 ms-grid reference with overlapping speakers and gaps, a
    non-overlapping hypothesis with gaps, and 1-3 SAD regions."""
    frames = int(rng.integers(300, 1500))
    ref = []
    for s in range(int(rng.integers(2, 5))):
        t = int(rng.integers(0, 200))
        while t < frames - 10:
            end = min(t + int(rng.integers(20, 300)), frames)
            ref.append(TimelineEntry("c", t / 100, end / 100, f"S{s}"))
            t = end + int(rng.integers(10, 500))
    hyp, t = [], int(rng.integers(0, 100))
    while t < frames - 10:
        end = min(t + int(rng.integers(20, 300)), frames)
        hyp.append(TimelineEntry("c", t / 100, end / 100, f"h{int(rng.integers(0, 4))}"))
        t = end + int(rng.integers(0, 60))
    cuts = sorted(int(x) for x in rng.choice(frames + 1, size=2 * int(rng.integers(1, 4)),
                                             replace=False))
    sad = [SadMark("c", a / 100, b / 100) for a, b in zip(cuts[::2], cuts[1::2])]
    return ref, hyp, sad, frames


def test_der_components_match_raster_oracle():
    rng = np.random.default_rng(34)
    scored_cases = 0
    for i in range(120):
        ref, hyp, sad, frames = _raster_case(rng)
        collar_s = (0.0, 0.1, 0.25, 0.5)[i % 4]
        n_scored, miss, fa, err = _raster_der(ref, hyp, sad, collar_s, frames)
        if n_scored == 0 and fa:  # pure false alarm: reported, with no DER
            r = compute_der(ref, hyp, sad, collar_s=collar_s)
            assert (r.scored_time_s, r.missed_time_s, r.speaker_error_time_s) == (0, 0, 0)
            assert r.false_alarm_time_s == fa * 100 / 10000
            assert math.isnan(r.der)
            continue
        if n_scored == 0:  # nothing scored at all: every field zero
            assert compute_der(ref, hyp, sad, collar_s=collar_s) == DerResult(0, 0, 0, 0, 0)
            continue
        scored_cases += 1
        r = compute_der(ref, hyp, sad, collar_s=collar_s)
        # one 10 ms frame is 100 units of the scorer's 0.1 ms grid
        assert r.scored_time_s == n_scored * 100 / 10000
        assert r.missed_time_s == miss * 100 / 10000
        assert r.false_alarm_time_s == fa * 100 / 10000
        assert r.speaker_error_time_s == err * 100 / 10000
    assert scored_cases >= 100


# --------------------------------------------------------------- long input

def _hour_long_timeline(rng, hours=1.0, n_speakers=4):
    """Turns of 1-6 s from n_speakers speakers, some overlapping the previous
    turn and some after a pause; the hypothesis moves every boundary by up to
    0.3 s and relabels a tenth of the turns at random."""
    def jitter(t):
        return round(t + float(rng.uniform(-0.3, 0.3)), 3)

    total, t = 3600.0 * hours, 0.0
    ref, hyp, spk = [], [], -1
    while t < total:
        spk = int(rng.choice([s for s in range(n_speakers) if s != spk]))
        end = round(t + float(rng.uniform(1.0, 6.0)), 3)
        ref.append(TimelineEntry("c", t, end, f"S{spk}"))
        lab = spk if rng.random() > 0.1 else int(rng.integers(0, n_speakers))
        a = max(0.0, jitter(t))
        hyp.append(TimelineEntry("c", a, max(a + 0.1, jitter(end)), f"h{lab}"))
        roll = rng.random()
        if roll < 0.2:
            t = round(end - 0.5, 3)
        elif roll < 0.4:
            t = round(end + float(rng.uniform(0.5, 2.0)), 3)
        else:
            t = end
    return ref, hyp, [SadMark("c", e.start_s, e.end_s) for e in ref]


def test_hour_long_conversation_scores_quickly():
    ref, hyp, sad = _hour_long_timeline(np.random.default_rng(35))
    assert len(ref) > 800
    start = time.perf_counter()
    r = compute_der(ref, hyp, sad)
    elapsed = time.perf_counter() - start
    assert 2000.0 < r.scored_time_s < 3600.0 and 0.0 < r.der < 0.5
    assert elapsed < 1.0, f"scoring a 60 min conversation took {elapsed:.2f} s"


# ------------------------------------------------------------------ validation

def test_der_input_validation():
    sad = [SadMark("c", 0.0, 4.0)]
    ref = _tl("c", (0.0, 4.0, "A"))
    with pytest.raises(InvalidInputError):
        compute_der([], _tl("c", (0.0, 1.0, "x")), sad)
    with pytest.raises(InvalidInputError):
        compute_der(ref, _tl("other", (0.0, 1.0, "x")), sad)
    with pytest.raises(InvalidInputError):
        compute_der(ref, _tl("c", (2.0, 1.0, "x")), sad)
    with pytest.raises(InvalidInputError):
        compute_der(ref, ref, sad, collar_s=-0.1)
    with pytest.raises(InvalidInputError):
        compute_der(ref, ref, [])
    with pytest.raises(InvalidInputError):
        compute_der(ref, ref, [SadMark("other", 0.0, 4.0)])


# ------------------------------------------------------------------ hypothesis

def _seg(conv, a, b):
    return Segment(conv, a, b, (int(a * 100), int(b * 100)))


def test_build_hypothesis_merges_same_label():
    segs = [_seg("c", 0.0, 1.5), _seg("c", 0.75, 2.25)]
    out = build_hypothesis(segs, [4, 4])
    assert out == [TimelineEntry("c", 0.0, 2.25, "spk4")]


def test_build_hypothesis_splits_at_midpoint():
    segs = [_seg("c", 0.0, 1.5), _seg("c", 0.75, 2.25)]
    out = build_hypothesis(segs, [0, 1])
    assert out == [TimelineEntry("c", 0.0, 1.125, "spk0"),
                   TimelineEntry("c", 1.125, 2.25, "spk1")]


def test_build_hypothesis_single_segment():
    out = build_hypothesis([_seg("c", 1.0, 2.5)], [7])
    assert out == [TimelineEntry("c", 1.0, 2.5, "spk7")]


def test_build_hypothesis_chain_and_gap():
    segs = [_seg("c", 0.0, 1.5), _seg("c", 0.75, 2.25), _seg("c", 1.5, 3.0),
            _seg("c", 4.0, 5.0)]
    out = build_hypothesis(segs, [0, 1, 1, 0])
    assert out == [TimelineEntry("c", 0.0, 1.125, "spk0"),
                   TimelineEntry("c", 1.125, 3.0, "spk1"),
                   TimelineEntry("c", 4.0, 5.0, "spk0")]


def test_build_hypothesis_rejects_nested_conflict():
    segs = [_seg("c", 0.0, 3.0), _seg("c", 1.0, 2.0)]
    with pytest.raises(InvalidInputError):
        build_hypothesis(segs, [0, 1])
    with pytest.raises(InvalidInputError):
        build_hypothesis(segs, [0])


# -------------------------------------------------------------------- RTTM io

def test_rttm_roundtrip(tmp_path):
    path = tmp_path / "x.rttm"
    entries = _tl("conv1", (0.0, 1.5, "A"), (1.5, 3.25, "B")) + _tl("conv2", (0.5, 2.0, "A"))
    write_rttm(entries, path)
    assert read_rttm(path) == sorted(entries)


def test_rttm_format_line(tmp_path):
    path = tmp_path / "x.rttm"
    write_rttm(_tl("iaaa", (0.0, 2.35, "A")), path)
    assert path.read_text() == "SPEAKER iaaa 1 0.000 2.350 <NA> <NA> A <NA> <NA>\n"
    assert read_rttm(path) == [TimelineEntry("iaaa", 0.0, 2.35, "A")]


def test_rttm_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "x.rttm"
    path.write_text(";; created by hand\n\nSPEAKER c 1 0.000 1.000 <NA> <NA> A <NA> <NA>\n")
    assert read_rttm(path) == [TimelineEntry("c", 0.0, 1.0, "A")]


def test_rttm_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "x.rttm"
    path.write_text("SPEAKER c 1 0.000 1.000 <NA> <NA> A <NA> <NA>\nJUNK line\n")
    with pytest.raises(FormatError, match=":2:"):
        read_rttm(path)
    path.write_text("SPEAKER c 1 0.000 -1.000 <NA> <NA> A <NA> <NA>\n")
    with pytest.raises(FormatError, match=":1:"):
        read_rttm(path)
    path.write_text("SPEAKER c 1 zero 1.000 <NA> <NA> A <NA> <NA>\n")
    with pytest.raises(FormatError, match=":1:"):
        read_rttm(path)


@pytest.mark.parametrize("tbeg,tdur", [("0.0", "inf"), ("nan", "1.0"), ("0.0", "nan"),
                                       ("inf", "1.0"), ("-inf", "inf"), ("1e308", "1e308")])
def test_rttm_rejects_non_finite_times(tmp_path, tbeg, tdur):
    path = tmp_path / "x.rttm"
    path.write_text("SPEAKER c 1 0.000 1.000 <NA> <NA> A <NA> <NA>\n"
                    f"SPEAKER c 1 {tbeg} {tdur} <NA> <NA> B <NA> <NA>\n")
    with pytest.raises(FormatError, match=":2: time fields must be finite"):
        read_rttm(path)


@pytest.mark.parametrize("count", ["\u00b2", "\u0663", "0", "-1", "+2", "2.0", "two"])
def test_speaker_counts_accept_ascii_digits_only(tmp_path, count):
    path = tmp_path / "k.txt"
    path.write_text(f"a 2\nb {count}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=":2: expected 'conversation count'"):
        read_speaker_counts(path)
    path.write_text("a 2\nb 12\n", encoding="utf-8")
    assert read_speaker_counts(path) == {"a": 2, "b": 12}


def test_rttm_write_is_deterministic(tmp_path):
    entries = _tl("c", (1.5, 3.0, "B"), (0.0, 1.5, "A"))
    p1, p2 = tmp_path / "a.rttm", tmp_path / "b.rttm"
    write_rttm(entries, p1)
    write_rttm(list(reversed(entries)), p2)
    assert p1.read_bytes() == p2.read_bytes()


# --------------------------------------------------------------------- report

def test_report_layout_and_totals():
    results = {
        "conv1": DerResult(10.0, 1.0, 0.5, 0.5, 0.2),
        "conv2": DerResult(30.0, 0.0, 0.0, 0.0, 0.0),
    }
    counts = {"conv1": 2, "conv2": 4}
    text = der_report(results, counts)
    lines = text.strip().split("\n")
    assert lines[0] == "conversation scored miss fa spkerr der"
    assert lines[1].startswith("conv1 10.000 0.500 0.500 1.000 ")
    total = lines[3].split()
    assert total[0] == "TOTAL"
    assert float(total[1]) == 40.0
    assert float(total[5]) == pytest.approx(2.0 / 40.0, abs=1e-4)
    assert any(l.startswith("GROUP-2spk ") for l in lines)
    assert any(l.startswith("GROUP-4+spk ") for l in lines)
    assert not any(l.startswith("GROUP-3spk") for l in lines)


def test_report_gives_unscored_conversations_no_weight():
    scored = {"conv1": DerResult(10.0, 1.0, 0.5, 0.5, 0.2),
              "conv3": DerResult(30.0, 3.0, 0.0, 0.0, 0.1)}
    empty = DerResult(0.0, 0.0, 0.0, 0.0, 0.0)
    with_empty = der_report({**scored, "conv2": empty}, {"conv1": 2, "conv2": 3, "conv3": 2})
    lines = with_empty.splitlines()
    assert "conv2 0.000 0.000 0.000 0.000 0.0000" in lines
    assert not any(l.startswith("GROUP-3spk") for l in lines)
    base = der_report(scored, {"conv1": 2, "conv3": 2}).splitlines()
    assert [l for l in lines if not l.startswith("conv2 ")] == base
    # a corpus with no scored time takes compute_der's rule in its TOTAL
    nothing = der_report({"conv2": empty, "conv4": empty}).splitlines()
    assert nothing[1:] == ["conv2 0.000 0.000 0.000 0.000 0.0000",
                           "conv4 0.000 0.000 0.000 0.000 0.0000",
                           "TOTAL 0.000 0.000 0.000 0.000 0.0000"]
    false_alarm = DerResult(0.0, 0.0, 0.0, 1.0, math.nan)
    fa_only = der_report({"conv2": empty, "conv5": false_alarm}, {"conv2": 3, "conv5": 2})
    assert fa_only.splitlines()[2:] == ["conv5 0.000 0.000 1.000 0.000 nan",
                                        "TOTAL 0.000 0.000 1.000 0.000 nan"]


def test_speaker_counts_and_grouping_helpers():
    entries = _tl("v", (0.0, 1.0, "A"), (1.0, 2.0, "B"), (2.0, 3.0, "A")) + \
        _tl("w", (0.0, 1.0, "Q"))
    assert speaker_counts(entries) == {"v": 2, "w": 1}
    grouped = by_conversation(entries)
    assert list(grouped) == ["v", "w"]
    assert len(grouped["v"]) == 3
