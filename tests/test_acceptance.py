"""Release gate for the whole toolkit.

One test per shipping requirement. Each computes its verdict against an
independent oracle (finite differences, brute-force re-computation, numerical
integration, permutation search, or a from-scratch reimplementation), prints a
single summary line, and only then asserts, so a full run always shows the
scoreboard. Run with ``pytest tests/test_acceptance.py -s`` to see the lines.

The final two tests drive the CLI through a complete synthetic experiment:
corpus synthesis, training, embedding extraction, backend fit, diarization
with both stopping rules, scoring, then an identical rerun compared byte for
byte.
"""

import io
import itertools
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from diarkit import der
from diarkit.backend import Plda, fit_plda
from diarkit.clustering import ahc
from diarkit.cli import main
from diarkit.features import SadMark, read_features, read_sad
from diarkit.network import (
    DimOverrides,
    VARIANCE_FLOOR,
    build_architecture,
    initialize_network,
    param_shapes,
)
from diarkit.network.graph import LAYER_KINDS
from diarkit.training import ManifestEntry, TrainConfig, build_train_set, train
from embedding_reference import stats_pool
from gradcheck_reference import check_gradients, condition_for_fd
from plda_reference import plda_score


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


# ------------------------------------------------------------ 1. gradients

def test_gradients_match_finite_differences_on_full_net():
    """Analytic backprop vs central differences over every parameter of a
    reduced-width two-tap multi-scale net; the graph contains every layer
    kind the framework defines, so one sweep covers them all."""
    t0 = time.perf_counter()
    dims = DimOverrides(width=32, factor_width=32, inner_dim=16,
                        pool_width=32, branch_dim=32, embed_dim=32)
    spec = build_architecture("ftdnn_msa", 4, dims=dims)
    assert {ls.kind for ls in spec.layers} == set(LAYER_KINDS)
    net = initialize_network(spec, seed=7)

    rng = np.random.default_rng(1007)
    seqs = [rng.normal(m, s, size=(n, dims.feat_dim))
            for n, m, s in ((35, -1.2, 0.7), (35, 0.9, 1.3), (36, -0.2, 1.0))]
    windows = [(0, [(0, 35)]), (1, [(0, 35)]), (2, [(0, 35), (1, 36)])]
    condition_for_fd(net, seqs, windows=windows)
    grad_out = np.random.default_rng(5).choice([-1.0, 1.0], size=(3, 4))
    rels = check_gradients(net, seqs, grad_out, windows=windows)
    elapsed = time.perf_counter() - t0

    checked = {k.split(".")[0] for k in rels}
    missing = {ls.name for ls in spec.layers if param_shapes(ls)} - checked
    worst_name, worst = max(rels.items(), key=lambda kv: kv[1])
    ok = worst < 1e-4 and elapsed < 60.0 and not missing
    _report("gradient sweep", ok,
            f"{len(rels)} tensors, worst {worst:.2e} at {worst_name}, {elapsed:.1f}s")
    assert not missing
    assert worst < 1e-4, worst_name
    assert elapsed < 60.0


# ------------------------------------------------- 2. semi-orthogonality

def test_training_keeps_factors_semi_orthogonal():
    """200-step toy run; at every projection step each factorized layer's
    first factor must sit back on the semi-orthogonal manifold."""
    dims = DimOverrides(width=12, factor_width=12, inner_dim=6, pool_width=16)
    net = initialize_network(build_architecture("ftdnn", 4, dims=dims), seed=3)
    rng = np.random.default_rng(21)
    feats = [rng.normal(size=(200, 23)) for _ in range(40)]
    entries = [ManifestEntry(f"u{i:03d}", f"s{i % 4}", "") for i in range(40)]
    cfg = TrainConfig(epochs=10, batch_size=2, lr_start=2e-3, lr_end=2e-4, seed=0)
    records = train(net, build_train_set(entries, feats), cfg)

    at_proj = [r.ortho_residual for r in records if r.step % cfg.ortho_interval == 0]
    between = [r.ortho_residual for r in records if r.step % cfg.ortho_interval != 0]
    worst = max(at_proj)
    ok = len(records) == 200 and len(at_proj) == 50 and worst < 1e-6
    _report("semi-orthogonality", ok,
            f"{len(at_proj)} projections over {len(records)} steps, "
            f"worst residual {worst:.2e}")
    assert len(records) == 200 and len(at_proj) == 50
    assert worst < 1e-6
    # the updates do leave the manifold in between, so projection is load-bearing
    assert max(between) > worst


# ------------------------------------------- 3. pooling and PLDA oracles

def test_pooling_and_plda_match_independent_oracles():
    # statistics pooling vs a plain two-pass mean/deviation computation
    rng = np.random.default_rng(42)
    worst_pool = 0.0
    for _ in range(100):
        n, d = int(rng.integers(1, 50)), int(rng.integers(1, 10))
        x = rng.normal(rng.uniform(-3, 3), rng.uniform(0.1, 4.0), size=(n, d))
        mean = x.sum(axis=0) / n
        dev = np.sqrt(np.maximum(((x - mean) ** 2).sum(axis=0) / n, VARIANCE_FLOOR))
        worst_pool = max(worst_pool, float(
            np.abs(stats_pool(x) - np.concatenate([mean, dev])).max()))

    # pairwise log-likelihood ratio vs integrating the speaker variable out
    psi_val = 2.0
    plda_1d = Plda(np.zeros(1), np.eye(1), np.array([psi_val]))
    y = np.linspace(-14.0, 14.0, 40001)
    prior = np.exp(-0.5 * y * y / psi_val) / math.sqrt(2 * math.pi * psi_val)

    def marginal(u):
        return math.exp(-0.5 * u * u / (psi_val + 1)) / math.sqrt(2 * math.pi * (psi_val + 1))

    worst_llr = 0.0
    grid = np.linspace(-5.0, 5.0, 21)
    for u1 in grid:
        for u2 in grid:
            lik = np.exp(-0.5 * ((u1 - y) ** 2 + (u2 - y) ** 2)) / (2 * math.pi)
            oracle = (math.log(np.trapezoid(prior * lik, y))
                      - math.log(marginal(u1)) - math.log(marginal(u2)))
            closed = plda_score(plda_1d, np.array([u1]), np.array([u2]))
            worst_llr = max(worst_llr, abs(closed - oracle))

    # parameter recovery from 20k draws of the generative model itself,
    # sheared and shifted so nothing is axis-aligned
    rng = np.random.default_rng(2024)
    psi_true = np.array([5.0, 2.5, 1.2, 0.6, 0.3])
    speakers, per = 2000, 10
    mix = np.eye(5) + 0.25 * rng.normal(size=(5, 5))
    centers = rng.normal(size=(speakers, 5)) * np.sqrt(psi_true)
    x = np.repeat(centers, per, axis=0) + rng.normal(size=(speakers * per, 5))
    x = x @ mix.T + rng.normal(size=5, scale=3.0)
    plda = fit_plda(x, np.repeat(np.arange(speakers), per))
    rel_psi = float(np.max(np.abs(plda.psi - psi_true) / psi_true))

    ok = worst_pool <= 1e-12 and worst_llr < 1e-6 and rel_psi <= 0.10
    _report("pooling/PLDA oracles", ok,
            f"pool {worst_pool:.1e}, llr {worst_llr:.1e} over 21x21 grid, "
            f"psi within {rel_psi:.1%} on 20k draws")
    assert worst_pool <= 1e-12
    assert worst_llr < 1e-6
    assert rel_psi <= 0.10


# ------------------------------------------------------------ 4. clustering

def _greedy_clustering(s, threshold=None, oracle_k=None):
    """Exhaustive reference: every round, rescan all cluster pairs and
    recompute their average pairwise score directly from the input matrix."""
    n = s.shape[0]
    clusters = [[i] for i in range(n)]
    while len(clusters) > 1:
        if oracle_k is not None and len(clusters) == oracle_k:
            break
        best = None
        for ai in range(len(clusters)):
            for bi in range(ai + 1, len(clusters)):
                block = s[np.ix_(clusters[ai], clusters[bi])]
                key = (-block.mean(), min(clusters[ai]), min(clusters[bi]))
                if best is None or key < best[0]:
                    best = (key, ai, bi)
        if threshold is not None and -best[0][0] < threshold:
            break
        _, ai, bi = best
        clusters[ai] += clusters[bi]
        del clusters[bi]
    labels = np.empty(n, dtype=np.int64)
    for lab, c in enumerate(sorted(clusters, key=min)):
        labels[np.asarray(c)] = lab
    return labels


def test_clustering_matches_exhaustive_reference():
    rng = np.random.default_rng(1234)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        s = (a + a.T) / 2.0
        np.fill_diagonal(s, 0.0)
        thr = float(rng.normal(scale=0.8))
        k = int(rng.integers(1, n + 1))
        if not np.array_equal(ahc(s, threshold=thr), _greedy_clustering(s, threshold=thr)):
            mismatches += 1
        if not np.array_equal(ahc(s, oracle_k=k), _greedy_clustering(s, oracle_k=k)):
            mismatches += 1
    _report("clustering vs exhaustive greedy", mismatches == 0,
            f"200 matrices, both stop rules, {mismatches} mismatches")
    assert mismatches == 0


# ------------------------------------------------------------ 5. DER scorer

def _random_timeline(rng, conv="c"):
    names = [f"r{i}" for i in range(int(rng.integers(2, 5)))]
    t, entries = 0.0, []
    for _ in range(int(rng.integers(3, 9))):
        dur = round(float(rng.uniform(0.8, 3.0)), 2)
        entries.append(der.TimelineEntry(conv, round(t, 2), round(t + dur, 2),
                                         str(rng.choice(names))))
        t = round(t + dur, 2)
    return entries, [SadMark(conv, 0.0, entries[-1].end_s)]


def _raster_overlap(ref, hyp, total_s):
    """Independent overlap accounting on a 10 ms grid."""
    units = int(round(total_s * 100))

    def rasterize(entries):
        grid = {s: np.zeros(units, dtype=bool) for s in {e.speaker for e in entries}}
        for e in entries:
            grid[e.speaker][int(round(e.start_s * 100)):int(round(e.end_s * 100))] |= True
        return grid

    ref_grid, hyp_grid = rasterize(ref), rasterize(hyp)
    refs, hyps = sorted(ref_grid), sorted(hyp_grid)
    return refs, hyps, np.array(
        [[int(np.sum(ref_grid[r] & hyp_grid[h])) for h in hyps] for r in refs])


def test_der_scorer_hand_cases_and_invariances():
    ref = [der.TimelineEntry("c", 0.0, 4.0, "A"), der.TimelineEntry("c", 4.0, 8.0, "B")]
    sad = [SadMark("c", 0.0, 8.0)]
    exact = der.compute_der(ref, [der.TimelineEntry("c", 0.0, 4.0, "x"),
                                  der.TimelineEntry("c", 4.0, 8.0, "y")], sad)
    merged = der.compute_der(ref, [der.TimelineEntry("c", 0.0, 8.0, "x")], sad)
    hand_ok = exact.der == 0.0 and abs(merged.der - 0.5) <= 1e-9

    rng = np.random.default_rng(77)
    invariance_failures = 0
    for _ in range(100):
        tl, marks = _random_timeline(rng)
        if der.compute_der(tl, tl, marks).der != 0.0:
            invariance_failures += 1
        shuffled = list(rng.permutation(sorted({e.speaker for e in tl})))
        relabeled = [e._replace(speaker=f"h{shuffled.index(e.speaker)}") for e in tl]
        if der.compute_der(tl, relabeled, marks).der != 0.0:
            invariance_failures += 1

    mapping_failures = 0
    for _ in range(50):
        ref_tl, marks = _random_timeline(rng)
        hyp_tl, _ = _random_timeline(rng)
        total_s = max(marks[0].end_s, hyp_tl[-1].end_s)
        mapping = der.optimal_speaker_mapping(ref_tl, hyp_tl, [(0.0, total_s)])
        refs, hyps, overlap = _raster_overlap(ref_tl, hyp_tl, total_s)
        achieved = sum(overlap[refs.index(r), hyps.index(h)] for h, r in mapping.items())
        padded = list(range(len(refs))) + [None] * len(hyps)
        best = max(sum(overlap[ri, j] for j, ri in enumerate(assign) if ri is not None)
                   for assign in itertools.permutations(padded, len(hyps)))
        if achieved != best:
            mapping_failures += 1

    ok = hand_ok and invariance_failures == 0 and mapping_failures == 0
    _report("DER scorer", ok,
            f"hand cases der={exact.der:.1f}/{merged.der:.3f}, "
            f"{invariance_failures} invariance failures over 100 timelines, "
            f"{mapping_failures} suboptimal mappings over 50 searches")
    assert hand_ok
    assert invariance_failures == 0
    assert mapping_failures == 0


# ------------------------------------------------------ 6. architecture

def test_factorized_architectures_have_published_dimensions():
    spec = build_architecture("ftdnn", 7000)
    by = {ls.name: ls for ls in spec.layers}
    ftdnn_rows = [
        ("frame1", "tdnn", 23, 512, (-2, -1, 0, 1, 2), ""),
        ("frame2", "factorized_tdnn", 512, 725, (-2, 0, 2), ""),
        ("frame3", "factorized_tdnn", 725, 725, (0,), ""),
        ("frame4", "factorized_tdnn", 725, 725, (-3, 0, 3), ""),
        ("frame5", "factorized_tdnn", 725, 725, (0,), "frame3_post"),
        ("frame6", "factorized_tdnn", 725, 725, (-3, 0, 3), ""),
        ("frame7", "factorized_tdnn", 725, 725, (-3, 0, 3), "frame4_post"),
        ("frame8", "factorized_tdnn", 725, 725, (-3, 0, 3), ""),
        ("frame9", "factorized_tdnn", 725, 725, (0,), "frame6_post"),
        ("frame10", "dense", 725, 1500, (0,), ""),
        ("stats", "stats_pool", 1500, 3000, (0,), ""),
        ("segment1", "dense", 3000, 512, (0,), ""),
    ]
    bad = [name for name, kind, din, dout, ctx, skip in ftdnn_rows
           if (by[name].kind, by[name].in_dim, by[name].out_dim,
               by[name].context, by[name].skip_from) != (kind, din, dout, ctx, skip)]
    bad += [name for name in ("frame2", "frame9") if by[name].inner_dim != 180]
    if spec.embedding_layer != "segment1":
        bad.append("embedding_layer")

    msa = build_architecture("ftdnn_msa", 7000)
    mby = {ls.name: ls for ls in msa.layers}
    msa_rows = [
        ("pre_stats_frame8", 725, 1500), ("stats_frame8", 1500, 3000),
        ("post_stats_frame8", 3000, 256),
        ("pre_stats_frame9", 725, 1500), ("stats_frame9", 1500, 3000),
        ("post_stats_frame9", 3000, 256),
        ("concat", 512, 512), ("segment1", 512, 512),
    ]
    bad += [name for name, din, dout in msa_rows
            if (mby[name].in_dim, mby[name].out_dim) != (din, dout)]
    if msa.msa_taps != ("frame8", "frame9") or msa.embedding_layer != "segment1":
        bad.append("msa_taps")

    _report("architecture conformance", not bad,
            f"{len(ftdnn_rows) + len(msa_rows)} layer rows checked"
            + (f", wrong: {bad}" if bad else ""))
    assert not bad


# --------------------------------------------- 7 + 8. synthetic experiment

def _run_cli(args, log):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main([str(a) for a in args])
    log.append((str(args[0]), buf.getvalue()))
    assert rc == 0, f"{args[0]} exited {rc}\n{buf.getvalue()}"
    return buf.getvalue()


def _train_args(arch, corpus, out):
    args = ["train", "--manifest", corpus / "train" / "manifest.txt", "--out", out,
            "--arch", arch, "--feat-dim", 23, "--width", 32, "--factor-width", 32,
            "--inner-dim", 16, "--pool-width", 48, "--epochs", 5, "--batch-size", 8,
            "--lr-start", 3e-3, "--lr-end", 2e-4, "--seed", 0]
    if arch == "ftdnn-msa":
        args += ["--branch-dim", 24, "--embed-dim", 24]
    return args


def _diarization_chain(base, arch, log):
    """Corpus to hypothesis RTTM, all through the CLI, fixed seeds."""
    corpus = base / "corpus"
    _run_cli(["synth", "--out", corpus, "--speakers", 20, "--train-utts", 20,
              "--convs", 50, "--seed", 42], log)
    model = base / f"{arch}.net"
    _run_cli(_train_args(arch, corpus, model), log)
    _run_cli(["embed", "--model", model, "--manifest", corpus / "train" / "manifest.txt",
              "--window", "--out", base / f"{arch}.emb"], log)
    _run_cli(["backend-fit", "--embeddings", base / f"{arch}.emb",
              "--out", base / f"{arch}.backend"], log)
    _run_cli(["diarize", "--model", model, "--backend", base / f"{arch}.backend",
              "--features", corpus / "eval" / "feats", "--sad", corpus / "eval" / "sad.lab",
              "--oracle-k", corpus / "eval" / "oracle_k.txt",
              "--out", base / f"{arch}.hyp.rttm"], log)
    return corpus, model


def _total_der(ref_path, hyp_path, sad_path):
    ref_by = der.by_conversation(der.read_rttm(ref_path))
    hyp_by = der.by_conversation(der.read_rttm(hyp_path))
    sad_by = {}
    for m in read_sad(sad_path):
        sad_by.setdefault(m.conversation_id, []).append(m)
    err = scored = 0.0
    for conv in sorted(ref_by):
        r = der.compute_der(ref_by[conv], hyp_by.get(conv, []), sad_by[conv])
        scored += r.scored_time_s
        err += r.missed_time_s + r.false_alarm_time_s + r.speaker_error_time_s
    return err / scored


def _turn_mean_probe_accuracy(corpus):
    """Nearest-centroid classifier (an affine decision rule) on per-turn
    feature means, trained on alternating turns of each speaker and scored on
    the rest. This is a property of the synthesized corpus: the speakers must
    be linearly separable before any diarization result can mean anything."""
    ref_by = der.by_conversation(der.read_rttm(corpus / "eval" / "ref.rttm"))
    vecs, names = [], []
    for conv in sorted(ref_by):
        feats = read_features(corpus / "eval" / "feats" / f"{conv}.fea").values
        for e in ref_by[conv]:
            a = int(round(e.start_s * 100))
            b = min(int(round(e.end_s * 100)), feats.shape[0])
            vecs.append(feats[a:b].mean(axis=0))
            names.append(e.speaker)
    x = np.asarray(vecs)
    order = sorted(set(names))
    labels = np.array([order.index(s) for s in names])
    held_in = np.zeros(len(labels), dtype=bool)
    for k in range(len(order)):
        idx = np.flatnonzero(labels == k)
        held_in[idx[::2]] = True
    centroids = np.stack([x[held_in & (labels == k)].mean(axis=0)
                          for k in range(len(order))])
    scores = x[~held_in] @ centroids.T - 0.5 * np.sum(centroids * centroids, axis=1)
    pred = np.argmax(scores, axis=1)
    return float(np.mean(pred == labels[~held_in])), int(np.sum(~held_in))


@pytest.fixture(scope="module")
def synthetic_experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("experiment")
    log = []
    t0 = time.perf_counter()
    corpus, model = _diarization_chain(root / "a", "ftdnn-msa", log)
    _run_cli(["calibrate", "--model", model, "--backend", root / "a" / "ftdnn-msa.backend",
              "--features", corpus / "eval" / "feats", "--sad", corpus / "eval" / "sad.lab",
              "--ref", corpus / "eval" / "ref.rttm", "--folds", 2,
              "--out", root / "a" / "cal.rttm"], log)
    # single-scale control arm on the same corpus (reported, not gated)
    single_corpus, _ = _diarization_chain(root / "single", "ftdnn", log)
    elapsed = time.perf_counter() - t0
    return {
        "root": root, "corpus": corpus, "log": log, "elapsed": elapsed,
        "hyp": root / "a" / "ftdnn-msa.hyp.rttm", "cal": root / "a" / "cal.rttm",
        "single_hyp": root / "single" / "ftdnn.hyp.rttm",
        "single_corpus": single_corpus,
    }


def test_synthetic_experiment_end_to_end(synthetic_experiment):
    e = synthetic_experiment
    corpus = e["corpus"]
    probe_acc, probe_n = _turn_mean_probe_accuracy(corpus)
    sad = corpus / "eval" / "sad.lab"
    ref = corpus / "eval" / "ref.rttm"
    oracle_der = _total_der(ref, e["hyp"], sad)
    calibrated_der = _total_der(ref, e["cal"], sad)
    single_der = _total_der(e["single_corpus"] / "eval" / "ref.rttm",
                            e["single_hyp"], e["single_corpus"] / "eval" / "sad.lab")
    minutes = e["elapsed"] / 60.0

    ok = (probe_acc >= 0.99 and oracle_der < 0.10
          and calibrated_der < 0.15 and minutes < 15.0)
    _report("synthetic experiment", ok,
            f"probe {probe_acc:.1%} on {probe_n} turns, oracle-K DER {oracle_der:.4f}, "
            f"calibrated DER {calibrated_der:.4f}, {minutes:.1f} min")
    print(f"[acceptance] multi-scale vs single-scale oracle-K DER: "
          f"{oracle_der:.4f} vs {single_der:.4f} "
          f"({'multi-scale better' if oracle_der < single_der else 'single-scale better'}, "
          f"directional only)", flush=True)
    assert probe_acc >= 0.99
    assert oracle_der < 0.10
    assert calibrated_der < 0.15
    assert minutes < 15.0


def test_synthetic_experiment_is_byte_reproducible(synthetic_experiment):
    e = synthetic_experiment
    log = []
    corpus_b, model_b = _diarization_chain(e["root"] / "b", "ftdnn-msa", log)
    _run_cli(["calibrate", "--model", model_b, "--backend", e["root"] / "b" / "ftdnn-msa.backend",
              "--features", corpus_b / "eval" / "feats", "--sad", corpus_b / "eval" / "sad.lab",
              "--ref", corpus_b / "eval" / "ref.rttm", "--folds", 2,
              "--out", e["root"] / "b" / "cal.rttm"], log)
    pairs = [
        ("ref.rttm", e["corpus"] / "eval" / "ref.rttm", corpus_b / "eval" / "ref.rttm"),
        ("hyp.rttm", e["hyp"], e["root"] / "b" / "ftdnn-msa.hyp.rttm"),
        ("cal.rttm", e["cal"], e["root"] / "b" / "cal.rttm"),
    ]
    unequal = [name for name, first, second in pairs
               if first.read_bytes() != second.read_bytes()]
    _report("rerun determinism", not unequal,
            "all RTTM outputs byte-identical" if not unequal
            else f"differs: {unequal}")
    assert not unequal
