"""The DER scorer's speaker mapping on its own, for the permutation-search
checks: a thin wrapper over der's sweep, so they check the mapping that
compute_der uses."""

from diarkit.der import _by_speaker, _merge, _q, _scored_runs


def optimal_speaker_mapping(ref, hyp, scored_regions) -> dict[str, str]:
    """One-to-one hypothesis-label to reference-speaker map maximizing the
    total overlap inside the scored regions (seconds); labels with no useful
    overlap stay unmapped."""
    scored = _merge([(_q(a), _q(b)) for a, b in scored_regions])
    return _scored_runs(_by_speaker(ref), _by_speaker(hyp), scored)[1]
