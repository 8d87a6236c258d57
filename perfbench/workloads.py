"""The benchmark's workloads, and one timed pass over a workload's stages.

Every workload synthesizes its corpus with ``diarkit synth`` from the
benchmark seed, sets up whatever its timed section reads, and then runs a
fixed chain of CLI stages in-process through ``diarkit.cli.main`` with
``--jobs 1``. README.md says why each workload exists and which layer metric
should move which end-to-end metric on it.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import resource
import statistics
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass

from diarkit.cli import main as diarkit_main
from diarkit.der import by_conversation, compute_der, read_rttm
from diarkit.errors import DiarkitError
from diarkit.features import read_sad
from diarkit.network import load_network
from diarkit.network.graph import FrameBatch
from diarkit.network.layers import context_span, factor_contexts

from .spans import Probe, Tracer, instrumented

# the acceptance experiment's network widths and learning-rate recipe
ACCEPTANCE_NET = ("--feat-dim", "23", "--width", "32", "--factor-width", "32",
                  "--inner-dim", "16", "--pool-width", "48", "--branch-dim", "24",
                  "--embed-dim", "24", "--lr-start", "3e-3", "--lr-end", "2e-4")
BATCH_SIZE = 8
LOSS_TAIL = 5  # final_loss averages the last this-many training steps


def _corpus(speakers, utts, utt_s, convs, conv_s) -> tuple[str, ...]:
    return ("--speakers", str(speakers), "--train-utts", str(utts),
            "--train-utt-s", str(utt_s), "--convs", str(convs), "--conv-s", str(conv_s))


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: tuple[str, ...]   # `diarkit synth` flags besides --out and --seed
    setup: tuple[str, ...]    # stages run after synth while setting up
    timed: tuple[str, ...]    # stages of the timed section, in order
    net: tuple[str, ...] = ACCEPTANCE_NET  # `diarkit train` width and lr flags


WORKLOADS = {w.name: w for w in (
    Workload("train", _corpus(20, 4, 12, 2, 20), (), ("train",)),
    Workload("train-paper", _corpus(8, 2, 4, 2, 20), (), ("train",), net=()),
    Workload("eval-short", _corpus(10, 4, 12, 16, 30), ("train",),
             ("embed", "backend-fit", "diarize", "calibrate", "score")),
    Workload("diarize-long", _corpus(10, 4, 12, 2, 180), ("train", "embed", "backend-fit"),
             ("diarize", "score")),
)}
STAGES = ("train", "embed", "backend-fit", "diarize", "calibrate", "score")
OUTPUT = {"train": "model.net", "embed": "train.emb", "backend-fit": "backend.bin",
          "diarize": "hyp.rttm", "calibrate": "cal.rttm"}
PRODUCER = {name: stage for stage, name in OUTPUT.items()}


def stage_argv(w: Workload, stage: str, seed: int, setup_dir: str, out_dir: str,
               running: tuple[str, ...]) -> list[str]:
    """Command line of one stage. Files made by a stage in `running` live in
    out_dir; everything else was made by set-up and lives in setup_dir."""

    def path(name: str) -> str:
        return os.path.join(out_dir if PRODUCER[name] in running else setup_dir, name)

    corpus = os.path.join(setup_dir, "corpus")
    manifest = os.path.join(corpus, "train", "manifest.txt")
    ev = os.path.join(corpus, "eval")
    conv_inputs = ["--features", os.path.join(ev, "feats"), "--sad", os.path.join(ev, "sad.lab")]
    if stage == "synth":
        return ["synth", "--out", corpus, "--seed", str(seed), *w.corpus]
    if stage == "train":
        return ["train", "--manifest", manifest, "--out", path("model.net"),
                "--arch", "ftdnn-msa", "--epochs", "1", "--batch-size", str(BATCH_SIZE),
                "--seed", str(seed), *w.net]
    if stage == "embed":
        return ["embed", "--model", path("model.net"), "--manifest", manifest, "--window",
                "--out", path("train.emb"), "--jobs", "1"]
    if stage == "backend-fit":
        return ["backend-fit", "--embeddings", path("train.emb"), "--out", path("backend.bin")]
    if stage == "diarize":
        return ["diarize", "--model", path("model.net"), "--backend", path("backend.bin"),
                *conv_inputs, "--oracle-k", os.path.join(ev, "oracle_k.txt"),
                "--out", path("hyp.rttm"), "--jobs", "1"]
    if stage == "calibrate":
        return ["calibrate", "--model", path("model.net"), "--backend", path("backend.bin"),
                *conv_inputs, "--ref", os.path.join(ev, "ref.rttm"), "--folds", "2",
                "--grid-size", "41", "--out", path("cal.rttm")]
    if stage == "score":
        return ["score", "--ref", os.path.join(ev, "ref.rttm"), "--hyp", path("hyp.rttm"),
                "--sad", os.path.join(ev, "sad.lab")]
    raise ValueError(f"unknown stage {stage!r}")


def run_stage(argv: list[str]) -> tuple[int, str, str]:
    """One CLI invocation in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = diarkit_main(argv)
    return code, out.getvalue(), err.getvalue()


def set_up(w: Workload, seed: int, setup_dir: str) -> tuple[int, list[str]]:
    """Synthesize the corpus and run the set-up stages; (attempted, failures)."""
    stages = ("synth",) + w.setup
    for done, stage in enumerate(stages, 1):
        code, _, err = run_stage(stage_argv(w, stage, seed, setup_dir, setup_dir, stages))
        if code != 0:
            return done, [f"set-up {stage} exited {code}: {err.strip()}"]
    return len(stages), []


def tree_digest(root: str) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    out = {}
    for parent, _, files in os.walk(root):
        for name in files:
            full = os.path.join(parent, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


# ------------------------------------------------------------------ tracing

def _rows(value) -> int:
    return value.data.shape[0] if isinstance(value, FrameBatch) else value.shape[0]


def forward_flop(spec, values) -> float:
    """Matrix-product flops of one forward pass, from the spec and the batch
    shapes each layer saw. Elementwise work (batch norm, pooling) is not
    counted."""
    macs = 0
    for ls in spec.layers:
        if ls.kind == "concat":
            continue
        x, rows_out = values[ls.inputs[0]], _rows(values[ls.name])
        if ls.skip_from and ls.skip_mode == "concat":
            macs += _rows(x) * 2 * ls.in_dim * ls.in_dim
        if ls.kind == "tdnn":
            macs += rows_out * len(ls.context) * ls.in_dim * ls.out_dim
        elif ls.kind == "factorized_tdnn":
            c1, c2 = factor_contexts(ls.context)
            hidden = rows_out + x.batch_size * context_span(c2)
            macs += (hidden * len(c1) * ls.in_dim * ls.inner_dim
                     + rows_out * len(c2) * ls.inner_dim * ls.out_dim)
        elif ls.kind == "dense":
            macs += rows_out * ls.in_dim * ls.out_dim
    return 2.0 * macs


def _frames(seqs) -> int:
    return sum(getattr(s, "values", s).shape[0] for s in seqs)


def _observe_training_forward(tracer, args, kwargs, result):
    net, seqs = args[0], args[1]
    tracer.count("network.train_frames", _frames(seqs))
    # the backward pass repeats each product twice, for the input and the weights
    tracer.count("network.train_flop", 3.0 * forward_flop(net.spec, result.values))


def _observe_read_features(tracer, args, kwargs, result):
    tracer.count("features.read_features.bytes", os.path.getsize(args[0]))


PROBES = (
    Probe("diarkit.training", "train_step", "training.train_step"),
    Probe("diarkit.training", "forward_batch", "network.forward_batch",
          _observe_training_forward),
    Probe("diarkit.training", "backward_batch", "network.backward_batch"),
    Probe("diarkit.training", "sgd_update", "training.sgd_update"),
    Probe("diarkit.training", "project_factors", "training.project_factors"),
    Probe("diarkit.training", "max_ortho_residual", "training.max_ortho_residual"),
    Probe("diarkit.training", "read_features", "features.read_features", _observe_read_features),
    Probe("diarkit.cli", "read_features", "features.read_features", _observe_read_features),
    Probe("diarkit.cli", "initialize_network", "network.initialize_network"),
    Probe("diarkit.cli", "save_network", "model_io.save_network"),
    Probe("diarkit.cli", "load_network", "model_io.load_network"),
    Probe("diarkit.pipeline", "extract_embeddings", "network.extract_embeddings",
          lambda t, a, k, r: t.count("network.embed_frames", _frames(a[1]))),
    Probe("diarkit.cli", "conversation_embeddings", "pipeline.conversation_embeddings",
          lambda t, a, k, r: t.count("pipeline.segments", len(r[0]))),
    Probe("diarkit.cli", "windowed_utterance_embeddings",
          "pipeline.windowed_utterance_embeddings",
          lambda t, a, k, r: t.count("pipeline.segments", len(r))),
    Probe("diarkit.cli", "fit_backend", "backend.fit_backend"),
    Probe("diarkit.cli", "conversation_scores", "backend.conversation_scores"),
    Probe("diarkit.pipeline", "conversation_scores", "backend.conversation_scores"),
    Probe("diarkit.clustering", "merge_sequence", "clustering.merge_sequence",
          lambda t, a, k, r: t.maximum("clustering.merge_sequence.max_n", len(a[0]))),
    Probe("diarkit.cli", "calibrate_threshold", "clustering.calibrate_threshold"),
    Probe("diarkit.cli", "compute_der", "der.compute_der",
          lambda t, a, k, r: t.count("der.turns", len(a[0]) + len(a[1]))),
    Probe("diarkit.cli", "build_hypothesis", "der.build_hypothesis"),
    Probe("diarkit.pipeline", "build_hypothesis", "der.build_hypothesis"),
)
SPAN_NAMES = tuple(dict.fromkeys(p.name for p in PROBES))


# ------------------------------------------------------------------ checks

def _total_der(ref_by, hyp_path, sad_by) -> float:
    hyp_by = by_conversation(read_rttm(hyp_path))
    if set(hyp_by) != set(sad_by):
        raise DiarkitError(f"{os.path.basename(hyp_path)} covers {len(hyp_by)} of "
                           f"{len(sad_by)} conversations")
    err = scored = 0.0
    for conv in sorted(sad_by):
        r = compute_der(ref_by[conv], hyp_by[conv], sad_by[conv])
        scored += r.scored_time_s
        err += r.missed_time_s + r.false_alarm_time_s + r.speaker_error_time_s
    return err / scored


def check_outputs(w: Workload, setup_dir: str, out_dir: str,
                  stdout: dict[str, str]) -> tuple[dict[str, float], list[str]]:
    """Validate one pass's outputs; returns (quality figures, failures)."""
    quality, failures = {}, []
    if "train" in w.timed:
        losses = [float(f[1]) for f in (line.split() for line in stdout["train"].splitlines())
                  if len(f) == 4 and f[0].isdigit()]
        quality["final_loss"] = statistics.fmean(losses[-LOSS_TAIL:]) if losses else math.nan
        if not math.isfinite(quality["final_loss"]):
            failures.append(f"final training loss is not finite: {losses[-LOSS_TAIL:]}")
        try:
            net = load_network(os.path.join(out_dir, OUTPUT["train"]))
            if not all(math.isfinite(float(p.sum())) for _, _, p in net.parameters()):
                failures.append("trained model has non-finite parameters")
        except (DiarkitError, OSError) as exc:
            failures.append(f"trained model does not reload: {exc}")
    ev = os.path.join(setup_dir, "corpus", "eval")
    sad_by: dict[str, list] = {}
    for m in read_sad(os.path.join(ev, "sad.lab")):
        sad_by.setdefault(m.conversation_id, []).append(m)
    ref_by = by_conversation(read_rttm(os.path.join(ev, "ref.rttm")))
    for stage, key in (("diarize", "der_oracle_k"), ("calibrate", "der_calibrated")):
        if stage in w.timed:
            try:
                quality[key] = _total_der(ref_by, os.path.join(out_dir, OUTPUT[stage]), sad_by)
            except (DiarkitError, OSError) as exc:
                failures.append(f"{stage} hypothesis does not score: {exc}")
    if "score" in w.timed and "der_oracle_k" in quality:
        rows = {f[0]: f[-1] for f in (line.split() for line in stdout["score"].splitlines()) if f}
        if set(rows) != set(sad_by) | {"conversation", "TOTAL"}:
            failures.append("score report does not list every conversation")
        elif rows["TOTAL"] != f"{quality['der_oracle_k']:.4f}":
            failures.append(f"score reports DER {rows['TOTAL']}, "
                            f"recomputed {quality['der_oracle_k']:.4f}")
    return quality, failures


# ------------------------------------------------------------- one pass

def run_pass(name: str, seed: int, setup_dir: str, out_dir: str, traced: bool) -> dict:
    """Run a workload's timed section once and check what it wrote.

    Runs in a worker process that does no set-up, so its peak RSS covers
    the timed section and the interpreter alone.
    """
    w = WORKLOADS[name]
    os.makedirs(out_dir, exist_ok=True)
    tracer = Tracer() if traced else None
    stage_s, stdout, failures = {}, {}, []
    with instrumented(tracer, PROBES) if traced else nullcontext():
        start = time.perf_counter()
        for stage in w.timed:
            argv = stage_argv(w, stage, seed, setup_dir, out_dir, w.timed)
            t0 = time.perf_counter()
            with tracer.span(f"cli.{stage}") if traced else nullcontext():
                code, stdout[stage], err = run_stage(argv)
            stage_s[stage] = time.perf_counter() - t0
            if code != 0:
                failures.append(f"{stage} exited {code}: {err.strip()}")
                break
        wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(stage_s)
    quality = {}
    if not failures:
        quality, failures = check_outputs(w, setup_dir, out_dir, stdout)
    result = {
        "traced": traced, "wall_s": wall, "stage_s": stage_s, "peak_rss_mb": peak_mb,
        "attempted": attempted, "failures": failures,
        "quality": quality, "outputs": tree_digest(out_dir),
    }
    if traced:
        result["trace"] = {"spans": tracer.to_records(), "self_s": tracer.self_times(),
                           "counters": tracer.counters}
    return result


# ------------------------------------------------------- layer metrics

def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass (zero for layers it never ran)."""
    spans, self_s, counters = trace["spans"], trace["self_s"], trace["counters"]
    own: dict[str, float] = {}
    total: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for s, own_s in zip(spans, self_s):
        own[s["name"]] = own.get(s["name"], 0.0) + own_s
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
        durations.setdefault(s["name"], []).append(s["end"] - s["start"])

    def calls(name):
        return float(len(durations.get(name, ())))

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    def p50(name):
        return statistics.median(durations[name]) if name in durations else 0.0

    m = {f"{name}.self_s": own.get(name, 0.0) for name in SPAN_NAMES}
    m.update({f"cli.{stage}.self_s": own.get(f"cli.{stage}", 0.0) for stage in STAGES})
    train_s = total.get("network.forward_batch", 0.0) + total.get("network.backward_batch", 0.0)
    gflop = counters.get("network.train_flop", 0.0) / 1e9
    m.update({
        "network.train_frames_per_s": ratio(counters.get("network.train_frames", 0.0), train_s),
        "network.gflop": gflop,
        "network.gflop_per_s": ratio(gflop, train_s),
        "network.extract_embeddings.calls": calls("network.extract_embeddings"),
        "network.embed_frames_per_s": ratio(counters.get("network.embed_frames", 0.0),
                                            total.get("network.extract_embeddings", 0.0)),
        "training.step_s.p50": p50("training.train_step"),
        "clustering.merge_sequence.calls": calls("clustering.merge_sequence"),
        "clustering.merge_sequence.max_n": counters.get("clustering.merge_sequence.max_n", 0.0),
        "der.compute_der.calls": calls("der.compute_der"),
        "der.compute_der.p50_ms": 1000.0 * p50("der.compute_der"),
        "der.turns_per_call": ratio(counters.get("der.turns", 0.0), calls("der.compute_der")),
        "pipeline.segments": counters.get("pipeline.segments", 0.0),
        "features.read_features.bytes": counters.get("features.read_features.bytes", 0.0),
    })
    return m


def stage_closure(trace: dict) -> dict[str, float]:
    """Per stage: |sum of self times in its span tree - its wall| / its wall."""
    spans, self_s = trace["spans"], trace["self_s"]
    sums = [0.0] * len(spans)
    for i, own_s in enumerate(self_s):
        root = i
        while spans[root]["parent"] >= 0:
            root = spans[root]["parent"]
        sums[root] += own_s
    return {s["name"]: abs(sums[i] - (s["end"] - s["start"])) / (s["end"] - s["start"])
            for i, s in enumerate(spans) if s["parent"] < 0}
