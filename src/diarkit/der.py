"""RTTM timelines, hypothesis construction, and collar-aware DER scoring.

All interval arithmetic runs on an integer 0.1 ms grid, so set operations are
exact and the hand-computable cases come out bit-for-bit.

Scoring follows the CALLHOME convention: it excludes a collar around each
point where the reference switches from one set of active speakers to
another, and every region where reference speakers overlap. Speech onsets and
offsets get no collar: there is no speaker transition there to forgive.

One boundary sweep (`_runs`, as in md-eval and pyannote.metrics) serves every
step: over the reference it finds the speaker changes and the overlap; over
the SAD speech and those it gives the scored regions; over the scored
regions, reference and hypothesis together it gives the (duration, ref set,
hyp set) runs and the ref x hyp overlap matrix for the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.optimize

from .errors import FormatError, InvalidInputError
from .features import SadMark

UNITS_PER_S = 10000  # 0.1 ms grid
DEFAULT_COLLAR_S = 0.25


class TimelineEntry(NamedTuple):
    conversation_id: str
    start_s: float
    end_s: float
    speaker: str


@dataclass(frozen=True)
class DerResult:
    scored_time_s: float
    speaker_error_time_s: float
    missed_time_s: float
    false_alarm_time_s: float
    der: float


def _q(t: float) -> int:
    return int(round(t * UNITS_PER_S))


# ------------------------------------------------------- interval set algebra
# intervals are sorted disjoint half-open [a, b) pairs on the integer grid

def _merge(intervals: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _runs(*groups: Mapping[str, list[tuple[int, int]]]):
    """Sweep the boundaries of several groups of named interval lists at once.

    Returns the runs (start, end, active) between consecutive boundaries, in
    time order from the first boundary to the last, gaps included. active
    holds one frozenset per group: the names whose intervals cover the run.
    Each name's intervals must be disjoint, as `_merge` leaves them.
    """
    events = sorted((p, starts, g, name)
                    for g, group in enumerate(groups)
                    for name, ivs in group.items()
                    for a, b in ivs
                    for p, starts in ((a, True), (b, False)))
    active: list[set[str]] = [set() for _ in groups]
    out, prev = [], None
    for p, starts, g, name in events:
        if prev is not None and p > prev:
            out.append((prev, p, tuple(frozenset(s) for s in active)))
        prev = p
        (active[g].add if starts else active[g].discard)(name)
    return out


# ------------------------------------------------------------------ timelines

def _validate_entries(entries: Sequence[TimelineEntry], what: str) -> str:
    if not entries:
        raise InvalidInputError(f"{what} timeline is empty")
    conv = entries[0].conversation_id
    for e in entries:
        if e.conversation_id != conv:
            raise InvalidInputError(
                f"{what} timeline mixes conversations {conv!r} and {e.conversation_id!r}")
        if not e.end_s > e.start_s:
            raise InvalidInputError(f"{what} entry {e} has end <= start")
    return conv


def _by_speaker(entries: Sequence[TimelineEntry]) -> dict[str, list[tuple[int, int]]]:
    out: dict[str, list[tuple[int, int]]] = {}
    for e in entries:
        out.setdefault(e.speaker, []).append((_q(e.start_s), _q(e.end_s)))
    return {s: _merge(iv) for s, iv in sorted(out.items())}


def _scored_runs(per_ref, per_hyp, scored):
    """One sweep over the scored regions, reference and hypothesis together.

    Returns the (duration, ref set, hyp set) runs inside the scored regions
    and the one-to-one hypothesis-label to reference-speaker map maximizing
    the total scored overlap; labels with no useful overlap stay unmapped.
    """
    row = {s: i for i, s in enumerate(per_ref)}
    col = {s: j for j, s in enumerate(per_hyp)}
    overlap = np.zeros((len(row), len(col)))
    elements = []
    for a, b, (s, r, h) in _runs({"scored": scored}, per_ref, per_hyp):
        if s:
            elements.append((b - a, r, h))
            for x in r:
                for y in h:
                    overlap[row[x], col[y]] += b - a
    if overlap.size == 0:
        return elements, {}
    rows, cols = scipy.optimize.linear_sum_assignment(overlap, maximize=True)
    ref_names, hyp_names = list(per_ref), list(per_hyp)
    return elements, {hyp_names[j]: ref_names[i]
                      for i, j in zip(rows, cols) if overlap[i, j] > 0}


def optimal_speaker_mapping(
    ref: Sequence[TimelineEntry],
    hyp: Sequence[TimelineEntry],
    scored_regions: Sequence[tuple[float, float]],
) -> dict[str, str]:
    """One-to-one hypothesis-label to reference-speaker map maximizing the
    total overlap inside the scored regions; labels with no useful overlap
    stay unmapped."""
    scored = _merge([(_q(a), _q(b)) for a, b in scored_regions])
    return _scored_runs(_by_speaker(ref), _by_speaker(hyp), scored)[1]


def check_collar(collar_s: float) -> None:
    """A collar is a finite, nonnegative number of seconds."""
    if not 0.0 <= collar_s < np.inf:
        raise InvalidInputError(f"collar must be finite and nonnegative, got {collar_s}")


def compute_der(
    ref: Sequence[TimelineEntry],
    hyp: Sequence[TimelineEntry],
    sad: Sequence[SadMark],
    collar_s: float = DEFAULT_COLLAR_S,
) -> DerResult:
    """Score one conversation's hypothesis against its reference.

    scored regions = SAD speech, minus a +-collar_s window around every
    speaker change (two adjacent reference runs, both non-empty and
    different), minus all reference overlap (runs of two or more speakers;
    always excluded). Over the scored runs, miss is reference time with no
    hypothesis, false alarm is hypothesis time outside reference speech, and
    speaker error is time where the optimally mapped labels disagree. The
    denominator is the scored reference speech time. When nothing is scored
    (no reference speech and no hypothesis in the scored regions, say SAD
    lying wholly inside collars) every field is zero, der included; false
    alarm with no scored reference speech has no DER and is invalid input.
    """
    conv = _validate_entries(ref, "reference")
    if hyp:
        hconv = _validate_entries(hyp, "hypothesis")
        if hconv != conv:
            raise InvalidInputError(f"hypothesis is for {hconv!r}, reference for {conv!r}")
    check_collar(collar_s)
    if not sad:
        raise InvalidInputError("no speech activity marks given")
    for m in sad:
        if m.conversation_id != conv:
            raise InvalidInputError(f"speech mark for {m.conversation_id!r}, reference for {conv!r}")
    speech = _merge([(_q(m.start_s), _q(m.end_s)) for m in sad])

    per_ref = _by_speaker(ref)
    qc = _q(collar_s)
    runs = _runs(per_ref)
    unscored = [(p - qc, p + qc) for (_, p, (before,)), (_, _, (after,)) in zip(runs, runs[1:])
                if before and after and before != after]
    unscored += [(a, b) for a, b, (r,) in runs if len(r) >= 2]
    scored = [(a, b) for a, b, (s, u) in _runs({"speech": speech}, {"unscored": _merge(unscored)})
              if s and not u]

    elements, mapping = _scored_runs(per_ref, _by_speaker(hyp), scored)
    scored_time = sum(n for n, r, _ in elements if r)
    miss = fa = err = 0
    for n, r, h in elements:
        if r and not h:
            miss += n
        elif h and not r:
            fa += n
        elif r and h and not any(mapping.get(lab) in r for lab in h):
            err += n
    if scored_time == 0:
        if fa:
            raise InvalidInputError(f"{conv}: no scorable reference speech")
        return DerResult(0.0, 0.0, 0.0, 0.0, 0.0)
    u = UNITS_PER_S
    # der is the ratio of the reported second-valued components, so the
    # identity der * scored == miss + fa + err survives the unit conversion
    return DerResult(scored_time / u, err / u, miss / u, fa / u,
                     (miss / u + fa / u + err / u) / (scored_time / u))


# ------------------------------------------------------ hypothesis timelines

def build_hypothesis(segments, labels) -> list[TimelineEntry]:
    """Turn labeled (possibly overlapping) segments into a hard timeline.

    Consecutive same-label segments merge when they touch or overlap. Where
    two different-label segments overlap, each keeps its half up to the
    overlap midpoint. Nested different-label segments have no midpoint rule
    and are rejected. Label l becomes speaker "spk{l}" in the segments'
    conversation.
    """
    segments = list(segments)
    labels = list(labels)
    if len(segments) != len(labels):
        raise InvalidInputError(f"{len(segments)} segments but {len(labels)} labels")
    if not segments:
        return []
    conv = segments[0].conversation_id
    order = sorted(range(len(segments)), key=lambda i: (segments[i].start_s, segments[i].end_s))
    out: list[TimelineEntry] = []
    cur_start = segments[order[0]].start_s
    cur_end = segments[order[0]].end_s
    cur_label = labels[order[0]]
    for i in order[1:]:
        seg, lab = segments[i], labels[i]
        if lab == cur_label and seg.start_s <= cur_end:
            cur_end = max(cur_end, seg.end_s)
            continue
        if seg.start_s < cur_end:  # different labels fighting over a region
            if seg.end_s < cur_end:
                raise InvalidInputError(
                    f"segment [{seg.start_s}, {seg.end_s}] nested inside [{cur_start}, {cur_end}] "
                    "with a different label")
            boundary = (seg.start_s + cur_end) / 2.0
        else:
            boundary = cur_end
        out.append(TimelineEntry(conv, cur_start, boundary, f"spk{cur_label}"))
        cur_start = boundary if seg.start_s < cur_end else seg.start_s
        cur_end = seg.end_s
        cur_label = lab
    out.append(TimelineEntry(conv, cur_start, cur_end, f"spk{cur_label}"))
    return out


def speaker_counts(entries: Sequence[TimelineEntry]) -> dict[str, int]:
    out: dict[str, set] = {}
    for e in entries:
        out.setdefault(e.conversation_id, set()).add(e.speaker)
    return {c: len(s) for c, s in sorted(out.items())}


def by_conversation(entries: Sequence) -> dict[str, list]:
    """Timeline entries, or SAD marks, grouped per conversation in id order."""
    out: dict[str, list] = {}
    for e in entries:
        out.setdefault(e.conversation_id, []).append(e)
    return dict(sorted(out.items()))


# -------------------------------------------------------------------- RTTM io

def write_rttm(entries: Sequence[TimelineEntry], path) -> None:
    """Speaker lines sorted by conversation, onset, speaker; times to 1 ms."""
    rows = sorted(entries, key=lambda e: (e.conversation_id, e.start_s, e.end_s, e.speaker))
    with open(path, "w", encoding="utf-8") as fh:
        for e in rows:
            fh.write(f"SPEAKER {e.conversation_id} 1 {e.start_s:.3f} "
                     f"{e.end_s - e.start_s:.3f} <NA> <NA> {e.speaker} <NA> <NA>\n")


def read_rttm(path) -> list[TimelineEntry]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(";;"):
                continue
            fields = line.split()
            if len(fields) != 10 or fields[0] != "SPEAKER":
                raise FormatError(f"{path}:{ln}: expected a 10-field SPEAKER line")
            try:
                tbeg, tdur = float(fields[3]), float(fields[4])
            except ValueError:
                raise FormatError(f"{path}:{ln}: non-numeric time fields") from None
            if not np.isfinite([tbeg, tbeg + tdur]).all():
                raise FormatError(f"{path}:{ln}: time fields must be finite, "
                                  f"got {fields[3]} {fields[4]}")
            if tdur <= 0:
                raise FormatError(f"{path}:{ln}: duration must be positive, got {fields[4]}")
            out.append(TimelineEntry(fields[1], tbeg, tbeg + tdur, fields[7]))
    return out


def write_speaker_counts(path, counts: Mapping[str, int]) -> None:
    """Plain "conversation count" lines, sorted by conversation id."""
    with open(path, "w", encoding="utf-8") as fh:
        for conv in sorted(counts):
            k = counts[conv]
            if k < 1:
                raise InvalidInputError(f"speaker count for {conv!r} must be positive, got {k}")
            fh.write(f"{conv} {k}\n")


def read_speaker_counts(path) -> dict[str, int]:
    out: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            fields = line.split()
            if not fields:
                continue
            digits = len(fields) == 2 and fields[1].isascii() and fields[1].isdigit()
            if not digits or int(fields[1]) < 1:
                raise FormatError(f"{path}:{ln}: expected 'conversation count'")
            if fields[0] in out:
                raise FormatError(f"{path}:{ln}: duplicate conversation {fields[0]!r}")
            out[fields[0]] = int(fields[1])
    return out


# --------------------------------------------------------------------- report

def der_report(results: Mapping[str, DerResult],
               counts: Mapping[str, int] | None = None) -> str:
    """Plain-text per-conversation table, a time-weighted total, and (when
    speaker counts are given) a breakdown over 2, 3, and 4-or-more speakers.

    A conversation with no scored time weighs nothing in the total and its
    group; a group with none is left out, and so is the report when no
    conversation has any."""
    if not results:
        raise InvalidInputError("no results to report")
    if not any(r.scored_time_s > 0 for r in results.values()):
        raise InvalidInputError("no conversation has scored time")

    def weighted(rs: list[DerResult]) -> DerResult:
        scored = sum(r.scored_time_s for r in rs)
        err = sum(r.speaker_error_time_s for r in rs)
        miss = sum(r.missed_time_s for r in rs)
        fa = sum(r.false_alarm_time_s for r in rs)
        return DerResult(scored, err, miss, fa, (err + miss + fa) / scored)

    def fmt(name: str, r: DerResult) -> str:
        return (f"{name} {r.scored_time_s:.3f} {r.missed_time_s:.3f} "
                f"{r.false_alarm_time_s:.3f} {r.speaker_error_time_s:.3f} {r.der:.4f}")

    lines = ["conversation scored miss fa spkerr der"]
    for conv in sorted(results):
        lines.append(fmt(conv, results[conv]))
    lines.append(fmt("TOTAL", weighted(list(results.values()))))
    if counts is not None:
        groups = {"2spk": [], "3spk": [], "4+spk": []}
        for conv in sorted(results):
            k = counts.get(conv)
            if k is None:
                raise InvalidInputError(f"no speaker count for conversation {conv!r}")
            if k >= 4:
                groups["4+spk"].append(results[conv])
            elif k in (2, 3):
                groups[f"{k}spk"].append(results[conv])
        for name, rs in groups.items():
            if any(r.scored_time_s > 0 for r in rs):
                lines.append(fmt(f"GROUP-{name}", weighted(rs)))
    return "\n".join(lines) + "\n"
