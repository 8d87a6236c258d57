"""Command-line behavior: exit codes, config merging, reproducible outputs.

The fixtures run the real subcommands in-process on a miniature corpus, so
these tests double as an end-to-end check of the wiring.
"""

import ctypes
import hashlib
import json
import os
import platform
import shutil
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

import diarkit
from diarkit import cli, pipeline
from diarkit.backend import EMBED_MAGIC, EmbeddingRecord, read_embeddings, write_embeddings
from diarkit.cli import main
from diarkit.der import read_rttm
from diarkit.errors import TrainingDivergedError
from diarkit.features import FRAME_SHIFT_S, read_features, read_sad, write_features
from diarkit.network import (
    DimOverrides,
    build_architecture,
    extract_embeddings,
    initialize_network,
    load_network,
    save_network,
)
from diarkit.training import (
    TrainConfig,
    load_manifest,
    load_train_set,
    read_manifest,
    train,
    write_manifest,
)
from blas_kernels import PIN_KERNELS


def _utterance_archive(model, manifest, out):
    """One whole-utterance embedding per manifest entry, labeled by speaker.
    The pinned diarize and calibrate outputs rest on back-ends fit on these."""
    entries, feats, _ = load_manifest(manifest)
    feats = list(feats)
    vecs = extract_embeddings(load_network(model), feats)
    write_embeddings(out, [EmbeddingRecord(e.utterance_id, 0.0, f.shape[0] * FRAME_SHIFT_S,
                                           e.speaker_id, v)
                           for e, f, v in zip(entries, feats, vecs)])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Corpus, trained toy model, backend, and an oracle-K hypothesis."""
    root = tmp_path_factory.mktemp("cliwork")
    corpus = root / "corpus"
    assert main(["synth", "--out", str(corpus), "--speakers", "3",
                 "--train-utts", "4", "--train-utt-s", "6", "--convs", "3",
                 "--conv-s", "20", "--turn-min", "3", "--turn-max", "5",
                 "--seed", "11"]) == 0
    model = root / "model.bin"
    assert main(["train", "--manifest", str(corpus / "train/manifest.txt"),
                 "--out", str(model), "--arch", "tdnn", "--feat-dim", "23",
                 "--width", "8", "--pool-width", "12", "--epochs", "1",
                 "--batch-size", "4", "--seed", "2"]) == 0
    emb = root / "train_emb.bin"
    _utterance_archive(model, corpus / "train/manifest.txt", emb)
    backend = root / "backend.bin"
    assert main(["backend-fit", "--embeddings", str(emb), "--out", str(backend)]) == 0
    hyp = root / "hyp.rttm"
    assert main(["diarize", "--model", str(model), "--backend", str(backend),
                 "--features", str(corpus / "eval/feats"),
                 "--sad", str(corpus / "eval/sad.lab"),
                 "--oracle-k", str(corpus / "eval/oracle_k.txt"),
                 "--out", str(hyp)]) == 0
    return {"root": root, "corpus": corpus, "model": model,
            "backend": backend, "hyp": hyp}


# ----------------------------------------------------------------- exit codes

def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_missing_required_flag(capsys):
    assert main(["score", "--ref", "r.rttm"]) == 2
    err = capsys.readouterr().err
    assert "--hyp" in err and "--sad" in err


def test_bad_value_type(capsys):
    assert main(["synth", "--out", "x", "--speakers", "many"]) == 2


def test_missing_file_is_exit_3(work, capsys):
    assert main(["score", "--ref", "nope.rttm", "--hyp", str(work["hyp"]),
                 "--sad", str(work["corpus"] / "eval/sad.lab")]) == 3


def test_malformed_file_is_exit_3(work, tmp_path, capsys):
    bad = tmp_path / "bad.rttm"
    bad.write_text("SPEAKER only three\n")
    assert main(["score", "--ref", str(bad), "--hyp", str(work["hyp"]),
                 "--sad", str(work["corpus"] / "eval/sad.lab")]) == 3


@pytest.mark.parametrize("ref_line,sad_line", [
    ("SPEAKER c 1 0.0 inf <NA> <NA> A <NA> <NA>", "c 0.0 2.0"),
    ("SPEAKER c 1 nan 1.0 <NA> <NA> A <NA> <NA>", "c 0.0 2.0"),
    ("SPEAKER c 1 0.0 1.0 <NA> <NA> A <NA> <NA>", "c 0.0 inf"),
])
def test_non_finite_time_is_exit_3(tmp_path, capsys, ref_line, sad_line):
    ref, hyp, sad = tmp_path / "ref.rttm", tmp_path / "hyp.rttm", tmp_path / "sad.lab"
    ref.write_text(ref_line + "\n")
    hyp.write_text("SPEAKER c 1 0.0 1.0 <NA> <NA> x <NA> <NA>\n")
    sad.write_text(sad_line + "\n")
    assert main(["score", "--ref", str(ref), "--hyp", str(hyp), "--sad", str(sad)]) == 3
    assert ":1:" in capsys.readouterr().err


def test_non_ascii_speaker_count_is_exit_3(work, tmp_path, capsys):
    counts = tmp_path / "k.txt"
    counts.write_text("".join(f"conv{i:03d} 2\n" for i in range(2)) + "conv002 \u00b2\n",
                      encoding="utf-8")
    assert main(["diarize", "--model", str(work["model"]), "--backend", str(work["backend"]),
                 "--features", str(work["corpus"] / "eval/feats"),
                 "--sad", str(work["corpus"] / "eval/sad.lab"),
                 "--oracle-k", str(counts), "--out", str(tmp_path / "x.rttm")]) == 3
    assert ":3: expected 'conversation count'" in capsys.readouterr().err
    assert not (tmp_path / "x.rttm").exists()


def test_invalid_input_is_exit_4(work, tmp_path, capsys):
    # hypothesis names a conversation the reference does not have
    stray = tmp_path / "stray.rttm"
    stray.write_text("SPEAKER ghost 1 0.000 1.000 <NA> <NA> a <NA> <NA>\n")
    assert main(["score", "--ref", str(work["corpus"] / "eval/ref.rttm"),
                 "--hyp", str(stray),
                 "--sad", str(work["corpus"] / "eval/sad.lab")]) == 4
    assert "ghost" in capsys.readouterr().err


# Every numeric option with its invalid edge values: NaN and +-inf for a float
# option where its domain excludes them, 0 and -1 for an int option where it
# excludes them, plus values just outside a finite end. Written out by hand,
# not read from the library's declarations.
_BAD_OPTION_VALUES = [
    ("features", "--cmn-window", "0"), ("features", "--cmn-window", "-1"),
    ("features", "--cmn-window", "-5"),
    ("synth", "--speakers", "0"), ("synth", "--speakers", "-1"),
    ("synth", "--separation", "nan"), ("synth", "--separation", "inf"),
    ("synth", "--separation", "-inf"),
    ("synth", "--train-utts", "0"), ("synth", "--train-utts", "-1"),
    ("synth", "--train-utt-s", "nan"), ("synth", "--train-utt-s", "inf"),
    ("synth", "--train-utt-s", "-inf"), ("synth", "--train-utt-s", "0.001"),
    ("synth", "--convs", "0"), ("synth", "--convs", "-1"),
    ("synth", "--conv-s", "nan"), ("synth", "--conv-s", "inf"), ("synth", "--conv-s", "-inf"),
    ("synth", "--turn-min", "nan"), ("synth", "--turn-min", "inf"),
    ("synth", "--turn-min", "-inf"), ("synth", "--turn-min", "0"),
    ("synth", "--turn-max", "nan"), ("synth", "--turn-max", "inf"),
    ("synth", "--turn-max", "-inf"),
    ("synth", "--speakers-per-conv", "0"), ("synth", "--speakers-per-conv", "-1"),
    ("synth", "--smoothing", "nan"), ("synth", "--smoothing", "inf"),
    ("synth", "--smoothing", "-inf"), ("synth", "--smoothing", "1.5"),
    ("synth", "--seed", "-1"),
    ("synth", "--conv-s", "1"), ("synth", "--turn-max", "2"), ("synth", "--speakers-per-conv", "4"),
    ("train", "--epochs", "0"), ("train", "--epochs", "-1"),
    ("train", "--batch-size", "0"), ("train", "--batch-size", "-1"),
    ("train", "--lr-start", "nan"), ("train", "--lr-start", "inf"),
    ("train", "--lr-start", "-inf"),
    ("train", "--lr-end", "nan"), ("train", "--lr-end", "inf"), ("train", "--lr-end", "-inf"),
    ("train", "--momentum", "nan"), ("train", "--momentum", "inf"),
    ("train", "--momentum", "-inf"), ("train", "--momentum", "5"),
    ("train", "--l2", "nan"), ("train", "--l2", "inf"), ("train", "--l2", "-inf"),
    ("train", "--dropout", "nan"), ("train", "--dropout", "inf"), ("train", "--dropout", "-inf"),
    ("train", "--dropout", "1.0"), ("train", "--dropout", "1.5"), ("train", "--dropout", "-0.5"),
    ("train", "--ortho-interval", "0"), ("train", "--ortho-interval", "-1"),
    ("train", "--window-frames", "0"), ("train", "--window-frames", "-1"),
    ("train", "--window-frames", "10"),
    ("train", "--window-shift", "0"), ("train", "--window-shift", "-1"),
    ("train", "--window-shift", "-5"),
    ("train", "--min-window-frames", "0"), ("train", "--min-window-frames", "-1"),
    ("train", "--min-window-frames", "10"),
    ("train", "--feat-dim", "0"), ("train", "--feat-dim", "-1"), ("train", "--feat-dim", "20"),
    ("train", "--width", "0"), ("train", "--width", "-1"),
    ("train", "--factor-width", "0"), ("train", "--factor-width", "-1"),
    ("train", "--inner-dim", "0"), ("train", "--inner-dim", "-1"),
    ("train", "--pool-width", "0"), ("train", "--pool-width", "-1"),
    ("train", "--branch-dim", "0"), ("train", "--branch-dim", "-1"),
    ("train", "--embed-dim", "0"), ("train", "--embed-dim", "-1"),
    ("train", "--seed", "-1"), ("train", "--seed", "-3"),
    ("backend-fit", "--pca-dim", "0"), ("backend-fit", "--pca-dim", "-1"),
    ("diarize", "--threshold", "nan"),
    ("diarize", "--pca-fraction", "nan"), ("diarize", "--pca-fraction", "inf"),
    ("diarize", "--pca-fraction", "-inf"), ("diarize", "--pca-fraction", "0"),
    ("calibrate", "--folds", "0"), ("calibrate", "--folds", "-1"), ("calibrate", "--folds", "1"),
    ("calibrate", "--grid-size", "0"), ("calibrate", "--grid-size", "-1"),
    ("calibrate", "--pca-fraction", "nan"), ("calibrate", "--pca-fraction", "inf"),
    ("calibrate", "--pca-fraction", "-inf"), ("calibrate", "--pca-fraction", "0"),
    ("calibrate", "--collar", "nan"), ("calibrate", "--collar", "inf"),
    ("calibrate", "--collar", "-inf"),
    ("score", "--collar", "nan"), ("score", "--collar", "inf"), ("score", "--collar", "-inf"),
]


@pytest.mark.parametrize("command,flag,value,dry_run", [
    pytest.param(*case, dry_run, id="-".join(case) + ("-dry-run" if dry_run else ""))
    for dry_run in (False, True) for case in _BAD_OPTION_VALUES])
def test_bad_option_value_is_exit_4(work, tmp_path, capsys, monkeypatch, request,
                                    command, flag, value, dry_run):
    """Rejected before any work: no conversation is embedded and nothing is
    written, dry run or not."""
    embedded = []
    real = cli.conversation_embeddings
    monkeypatch.setattr(cli, "conversation_embeddings",
                        lambda *args: embedded.append(args[2]) or real(*args))
    ev, out = work["corpus"] / "eval", tmp_path / "out"
    args = {
        "score": ["--ref", str(ev / "ref.rttm"), "--hyp", str(work["hyp"]),
                  "--sad", str(ev / "sad.lab")],
        "calibrate": [*_conv_args(work), "--backend", str(work["backend"]),
                      "--ref", str(ev / "ref.rttm"), "--out", str(out)],
        "diarize": [*_conv_args(work), "--backend", str(work["backend"]), "--out", str(out)],
        "train": ["--manifest", str(work["corpus"] / "train/manifest.txt"), "--out", str(out),
                  "--arch", "tdnn", "--feat-dim", "23", "--width", "8", "--pool-width", "12",
                  "--epochs", "1", "--batch-size", "4"],
        "synth": ["--out", str(out), "--speakers", "3", "--convs", "1"],
        "backend-fit": ["--embeddings", str(work["root"] / "train_emb.bin"), "--out", str(out)],
        "features": ["--out", str(out)],
    }[command]
    if command == "features":
        audio = request.getfixturevalue("audio_corpus") / "eval"
        args += ["--wav-dir", str(audio / "wav"), "--sad", str(audio / "sad.lab")]
    # --flag=value, since argparse would read a bare "-inf" as an option
    assert main([command, *args, f"{flag}={value}", *(["--dry-run"] if dry_run else [])]) == 4
    assert flag.lstrip("-") in capsys.readouterr().err
    assert embedded == []
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--feat-dim", "--width", "--factor-width", "--inner-dim",
                                  "--pool-width", "--branch-dim", "--embed-dim"])
def test_zero_width_is_rejected_before_the_training_set_is_read(work, tmp_path, monkeypatch,
                                                                 flag):
    loads = []
    monkeypatch.setattr(cli, "load_train_set", lambda path: loads.append(path))
    assert main(["train", "--manifest", str(work["corpus"] / "train/manifest.txt"),
                 "--out", str(tmp_path / "m.bin"), flag, "0", "--dry-run"]) == 4
    assert loads == []


def test_jobs_are_bounded(work, tmp_path, capsys):
    """Every command runs in one process: --jobs on diarize and embed, from
    the command line or a config file, accepts only 1, and features has no
    --jobs."""
    out, cfg = tmp_path / "x", tmp_path / "jobs.cfg"
    cfg.write_text("jobs = 2\n")
    diarize = ["diarize", *_conv_args(work), "--backend", str(work["backend"]),
               "--oracle-k", str(work["corpus"] / "eval/oracle_k.txt"), "--out", str(out)]
    for args in (diarize, ["embed", *_embed_args(work), "--out", str(out)]):
        assert main([*args, "--jobs", "2", "--dry-run"]) == 2
        assert main([*args, "--config", str(cfg), "--dry-run"]) == 2
        assert capsys.readouterr().err.count("--jobs: 2 is not one of 1") == 2
        assert main([*args, "--jobs", "1", "--dry-run"]) == 0
    assert main(["features", "--wav-dir", str(tmp_path), "--sad", str(tmp_path / "sad.lab"),
                 "--out", str(out), "--jobs", "1", "--dry-run"]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_diverged_training_is_exit_5(work, tmp_path, monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise TrainingDivergedError("loss is not finite: nan")

    monkeypatch.setattr("diarkit.cli.train", diverge)
    out = tmp_path / "model.bin"
    assert main(["train", "--manifest", str(work["corpus"] / "train/manifest.txt"),
                 "--out", str(out), "--arch", "tdnn", "--feat-dim", "23",
                 "--width", "8", "--pool-width", "12", "--epochs", "1"]) == 5
    assert "error: loss is not finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# a net with semi-orthogonal factors, trained in two steps of 6 utterances
_FACTORED_NET = ["--arch", "ftdnn-msa", "--feat-dim", "23", "--width", "8", "--factor-width", "8",
                 "--inner-dim", "4", "--pool-width", "12", "--branch-dim", "4", "--epochs", "1",
                 "--batch-size", "6", "--seed", "2"]


@pytest.mark.parametrize("rates,message", [
    (["--lr-start", "1e200", "--lr-end", "1e200"], "a factor matrix holds non-finite values"),
    (["--lr-end", "1e200"], "training left non-finite parameters"),
], ids=["every-step", "last-step"])
def test_diverged_training_writes_no_model(work, tmp_path, capsys, rates, message):
    """A huge rate at every step leaves factors that the first projection
    finds not finite; one only at the last step leaves parameters that no
    later forward pass sees, so the check after the last step finds them, and
    the last log line's ortho residual is NaN. Both exit 5 and write nothing."""
    out = tmp_path / "model.bin"
    with np.errstate(all="ignore"):
        code = main(["train", "--manifest", str(work["corpus"] / "train/manifest.txt"),
                     "--out", str(out), *_FACTORED_NET, "--embed-dim", "4", *rates])
    printed = capsys.readouterr()
    assert code == 5
    assert f"error: {message}" in printed.err
    if rates[0] == "--lr-end":
        assert printed.out.splitlines()[-1].split()[2] == "nan"
    assert list(tmp_path.iterdir()) == []


def _embedded_utterances(monkeypatch) -> list[str]:
    """The utterances windowed_utterance_embeddings hands to
    conversation_embeddings, recorded as it does."""
    calls, real = [], pipeline.conversation_embeddings

    def recording(net, feats, marks):
        calls.append(marks[0].conversation_id)
        return real(net, feats, marks)

    monkeypatch.setattr(pipeline, "conversation_embeddings", recording)
    return calls


def _manifest_with_last(work, tmp_path, write_last) -> tuple[list, str]:
    """The corpus' training manifest with absolute paths, its last feature
    file replaced by what write_last(entry, path) writes; (entries, manifest)."""
    train_dir = work["corpus"] / "train"
    entries = read_manifest(train_dir / "manifest.txt")
    entries = [e._replace(path=str(train_dir / e.path)) for e in entries]
    last = tmp_path / "last.fea"
    write_last(entries[-1], last)
    manifest = tmp_path / "manifest.txt"
    write_manifest(manifest, entries[:-1] + [entries[-1]._replace(path=str(last))])
    return entries, str(manifest)


@pytest.mark.parametrize("damage", ["nan", "truncated"])
def test_corrupt_last_feature_file_fails_before_any_work(work, tmp_path, capsys, monkeypatch,
                                                         damage):
    """Training reads each batch's files when it draws them, but first reads
    every file once: a manifest whose last feature file holds a NaN, or is
    cut short, makes train exit 3 before step 0 with no model written, and
    train --dry-run too. embed --manifest and its dry run exit 3 before the
    first utterance is embedded, with no archive written."""
    def damaged(entry, last):
        if damage == "nan":
            feats = read_features(entry.path)
            feats[-1, 3] = np.nan
            write_features(last, feats)
        else:
            with open(entry.path, "rb") as fh:
                last.write_bytes(fh.read()[:-10])

    _, manifest = _manifest_with_last(work, tmp_path, damaged)
    last = tmp_path / "last.fea"
    model, archive = tmp_path / "m.bin", tmp_path / "emb.bin"
    args = ["train", "--manifest", manifest, "--out", str(model), "--arch", "tdnn",
             "--feat-dim", "23", "--width", "8", "--pool-width", "12", "--epochs", "1",
             "--batch-size", "4", "--seed", "2"]
    capsys.readouterr()
    assert main(args) == 3
    printed = capsys.readouterr()
    assert printed.out == "" and str(last) in printed.err
    assert main([*args, "--dry-run"]) == 3
    embedded = _embedded_utterances(monkeypatch)
    embed = ["embed", "--model", str(work["model"]), "--manifest", manifest, "--window",
             "--out", str(archive)]
    assert main(embed) == 3
    assert embedded == []
    assert main([*embed, "--dry-run"]) == 3
    assert not model.exists() and not archive.exists()


def test_too_short_last_utterance_fails_before_any_embedding(work, tmp_path, capsys,
                                                              monkeypatch):
    """A last utterance shorter than any segment the model embeds (10
    frames against tdnn's 16) makes embed --manifest and its dry run exit 4,
    naming it, before the first utterance is embedded and with no archive
    written; the manifest as synthesized passes the dry run."""
    def short(entry, last):
        write_features(last, read_features(entry.path)[:10])

    entries, manifest = _manifest_with_last(work, tmp_path, short)
    archive = tmp_path / "emb.bin"
    embedded = _embedded_utterances(monkeypatch)
    embed = ["embed", "--model", str(work["model"]), "--manifest", manifest, "--window",
             "--out", str(archive)]
    capsys.readouterr()
    assert main(embed) == 4
    message = f"error: {entries[-1].utterance_id}: no usable segments within the features"
    assert message in capsys.readouterr().err
    assert embedded == [] and not archive.exists()
    assert main([*embed, "--dry-run"]) == 4
    assert message in capsys.readouterr().err
    synthesized = str(work["corpus"] / "train/manifest.txt")
    assert main([*embed[:4], synthesized, *embed[5:], "--dry-run"]) == 0
    assert capsys.readouterr().out == f"dry run: {len(entries)} utterances validated\n"
    assert embedded == [] and not archive.exists()


def test_removed_pooling_option_is_a_usage_error(work, tmp_path, capsys):
    """Training always pools windows: --pooling, on the command line or in a
    config file, is no option of train."""
    args = ["train", "--manifest", str(work["corpus"] / "train/manifest.txt"),
            "--out", str(tmp_path / "m.bin"), "--dry-run"]
    assert main([*args, "--pooling", "whole"]) == 2
    cfg = tmp_path / "train.cfg"
    cfg.write_text("pooling=whole\n")
    assert main([*args, "--config", str(cfg)]) == 2
    assert "'pooling' is not an option" in capsys.readouterr().err


def test_diarize_requires_exactly_one_stop_rule(work, capsys):
    base = ["diarize", "--model", str(work["model"]), "--backend", str(work["backend"]),
            "--features", str(work["corpus"] / "eval/feats"),
            "--sad", str(work["corpus"] / "eval/sad.lab"),
            "--out", str(work["root"] / "x.rttm")]
    assert main(base) == 2
    assert main(base + ["--threshold", "0", "--oracle-k",
                        str(work["corpus"] / "eval/oracle_k.txt")]) == 2


def test_embed_mode_selection(work, capsys):
    """embed has one mode, labeled windows from a manifest: --features and
    --sad are no options of it, --manifest is required, and it needs
    --window."""
    out = ["--out", str(work["root"] / "x.bin")]
    for flag, path in (("--features", "eval/feats"), ("--sad", "eval/sad.lab")):
        assert main(["embed", *_embed_args(work), flag, str(work["corpus"] / path), *out]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert main(["embed", "--model", str(work["model"]), "--window", *out]) == 2
    assert "missing --manifest" in capsys.readouterr().err
    assert main(["embed", *_embed_args(work)[:-1], *out]) == 2
    assert "--manifest needs --window" in capsys.readouterr().err
    assert not (work["root"] / "x.bin").exists()


def test_embed_window_mode(work, tmp_path):
    out = tmp_path / "win.bin"
    assert main(["embed", "--model", str(work["model"]), "--manifest",
                 str(work["corpus"] / "train/manifest.txt"), "--window",
                 "--out", str(out)]) == 0
    recs = read_embeddings(out)
    # 6 s utterances cut into 1.5 s windows at 0.75 s stride: 7 per utterance
    assert len(recs) == 7 * 12
    assert all(r.speaker for r in recs)
    assert recs[0].end_s - recs[0].start_s == pytest.approx(1.5)


# -------------------------------------------------------------------- scoring

def test_score_reference_against_itself(work, capsys):
    ref = str(work["corpus"] / "eval/ref.rttm")
    assert main(["score", "--ref", ref, "--hyp", ref,
                 "--sad", str(work["corpus"] / "eval/sad.lab")]) == 0
    total = [l for l in capsys.readouterr().out.splitlines() if l.startswith("TOTAL")]
    assert len(total) == 1
    assert total[0].split()[-1] == "0.0000"


def test_score_breakdown_groups(work, capsys):
    ref = str(work["corpus"] / "eval/ref.rttm")
    assert main(["score", "--ref", ref, "--hyp", ref,
                 "--sad", str(work["corpus"] / "eval/sad.lab"), "--breakdown"]) == 0
    assert "GROUP-2spk" in capsys.readouterr().out


def test_score_gives_a_wholly_collared_conversation_no_weight(tmp_path, capsys):
    # conv001's only speech, 4.2-4.5 s, lies inside the 0.25 s collar of its
    # reference change at 4.31 s, so none of it is scored
    ref, hyp, sad = tmp_path / "ref.rttm", tmp_path / "hyp.rttm", tmp_path / "sad.lab"

    def score(convs):
        for path, lines in ((ref, {"conv000": ["0.000 5.000 A", "5.000 5.000 B"],
                                   "conv001": ["0.000 4.310 A", "4.310 5.690 B"]}),
                            (hyp, {"conv000": ["0.000 7.000 spk0", "7.000 3.000 spk1"],
                                   "conv001": ["4.200 0.300 spk0"]})):
            path.write_text("".join(
                f"SPEAKER {c} 1 {t0} {dur} <NA> <NA> {who} <NA> <NA>\n"
                for c in convs for t0, dur, who in (l.split() for l in lines[c])))
        sad.write_text("".join({"conv000": "conv000 0.0 10.0\n",
                                "conv001": "conv001 4.2 4.5\n"}[c] for c in convs))
        assert main(["score", "--ref", str(ref), "--hyp", str(hyp), "--sad", str(sad),
                     "--collar", "0.25"]) == 0
        return capsys.readouterr().out.splitlines()

    both, alone = score(["conv000", "conv001"]), score(["conv000"])
    assert "conv001 0.000 0.000 0.000 0.000 0.0000" in both
    total = [l for l in both if l.startswith("TOTAL ")]
    assert total == [l for l in alone if l.startswith("TOTAL ")]
    assert total[0].split()[-1] != "0.0000"


def test_diarize_oracle_k_one_spans_sad(work, tmp_path):
    counts = tmp_path / "k1.txt"
    counts.write_text("".join(f"conv{i:03d} 1\n" for i in range(3)))
    out = tmp_path / "one.rttm"
    assert main(["diarize", "--model", str(work["model"]), "--backend", str(work["backend"]),
                 "--features", str(work["corpus"] / "eval/feats"),
                 "--sad", str(work["corpus"] / "eval/sad.lab"),
                 "--oracle-k", str(counts), "--out", str(out)]) == 0
    entries = read_rttm(out)
    sad = {m.conversation_id: m for m in read_sad(work["corpus"] / "eval/sad.lab")}
    assert len(entries) == 3
    for e in entries:
        assert e.speaker == "spk0"
        assert e.start_s == sad[e.conversation_id].start_s
        assert e.end_s == pytest.approx(sad[e.conversation_id].end_s)


# ------------------------------------------------------------- config / seeds

def test_config_file_fills_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("# corpus shape\nspeakers = 4\nconvs = 7\nout = ignored\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "c"),
                 "--convs", "2", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "4 speakers" in out and "2 conversations" in out


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("speaker_count=4\n")
    assert main(["synth", "--config", str(cfg), "--out", "x", "--dry-run"]) == 2
    assert "speaker_count" in capsys.readouterr().err


def test_config_bad_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no equals sign\n")
    assert main(["synth", "--config", str(cfg), "--out", "x", "--dry-run"]) == 2


def test_seed_env_fallback(tmp_path, monkeypatch):
    a, b, c = (tmp_path / n for n in ("a", "b", "c"))
    args = ["synth", "--speakers", "2", "--train-utts", "1", "--train-utt-s", "2",
            "--convs", "2", "--conv-s", "10", "--turn-min", "2", "--turn-max", "4"]
    monkeypatch.setenv("DIARKIT_SEED", "9")
    assert main(args + ["--out", str(a)]) == 0
    monkeypatch.delenv("DIARKIT_SEED")
    assert main(args + ["--out", str(b), "--seed", "9"]) == 0
    assert main(args + ["--out", str(c), "--seed", "1"]) == 0
    ra, rb, rc = ((p / "eval/ref.rttm").read_bytes() for p in (a, b, c))
    assert ra == rb
    assert ra != rc


def test_seed_env_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv("DIARKIT_SEED", "lots")
    assert main(["synth", "--out", "x", "--dry-run"]) == 2


@pytest.mark.parametrize("dry_run", [False, True])
def test_negative_seed_env_is_exit_4(work, tmp_path, monkeypatch, capsys, dry_run):
    """A negative DIARKIT_SEED is rejected before synth or train does any work."""
    monkeypatch.setenv("DIARKIT_SEED", "-2")
    out = tmp_path / "out"
    dry = ["--dry-run"] if dry_run else []
    assert main(["synth", "--out", str(out), "--speakers", "3", "--convs", "1", *dry]) == 4
    assert main(["train", "--manifest", str(work["corpus"] / "train/manifest.txt"),
                 "--out", str(out), "--arch", "tdnn", "--feat-dim", "23", "--width", "8",
                 "--pool-width", "12", "--epochs", "1", "--batch-size", "4", *dry]) == 4
    assert capsys.readouterr().err.count("DIARKIT_SEED") == 2
    assert not out.exists()


# ------------------------------------------------------------------- dry runs

def test_dry_run_has_no_side_effects(work, tmp_path):
    out = tmp_path / "never.rttm"
    assert main(["diarize", "--model", str(work["model"]), "--backend", str(work["backend"]),
                 "--features", str(work["corpus"] / "eval/feats"),
                 "--sad", str(work["corpus"] / "eval/sad.lab"),
                 "--threshold", "0.0", "--out", str(out), "--dry-run"]) == 0
    assert not out.exists()
    corpus = tmp_path / "nocorpus"
    assert main(["synth", "--out", str(corpus), "--dry-run"]) == 0
    assert not corpus.exists()


def test_dry_run_still_validates_inputs(work, tmp_path):
    assert main(["diarize", "--model", str(tmp_path / "missing.bin"),
                 "--backend", str(work["backend"]),
                 "--features", str(work["corpus"] / "eval/feats"),
                 "--sad", str(work["corpus"] / "eval/sad.lab"),
                 "--threshold", "0.0", "--out", str(tmp_path / "x.rttm"),
                 "--dry-run"]) == 3


# -------------------------------------------------------------- reproducibility

def test_embed_rerun_is_bit_identical(work, tmp_path):
    outs = []
    for name in ("e1.bin", "e2.bin"):
        out = tmp_path / name
        assert main(["embed", *_embed_args(work), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_calibrate_reports_and_writes(work, tmp_path, capsys):
    out = tmp_path / "cal.rttm"
    assert main(["calibrate", "--model", str(work["model"]), "--backend", str(work["backend"]),
                 "--features", str(work["corpus"] / "eval/feats"),
                 "--sad", str(work["corpus"] / "eval/sad.lab"),
                 "--ref", str(work["corpus"] / "eval/ref.rttm"),
                 "--out", str(out), "--folds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "fold threshold dev_der eval_der"
    fold_rows = [l for l in lines[1:] if len(l.split()) == 4]
    assert [r.split()[0] for r in fold_rows] == ["0", "1"]
    assert {e.conversation_id for e in read_rttm(out)} == {f"conv{i:03d}" for i in range(3)}


# ------------------------------------------------------------- memory policy

@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_allocator_settings_are_accepted():
    assert cli._reuse_freed_memory() is True


@pytest.mark.parametrize("error", [OSError, AttributeError])
def test_commands_run_without_mallopt(monkeypatch, tmp_path, capsys, error):
    def no_libc(*args, **kwargs):
        raise error("no libc here")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
    assert cli._reuse_freed_memory() is False
    assert main(["synth", "--out", str(tmp_path / "c"), "--speakers", "2",
                 "--train-utts", "1", "--train-utt-s", "1", "--convs", "1",
                 "--conv-s", "5", "--seed", "3"]) == 0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_outputs_do_not_depend_on_recycled_memory(work, tmp_path, monkeypatch):
    """Under the reuse policy np.empty hands out recycled, non-zero memory;
    under glibc's default 128 KiB thresholds every larger block is a fresh,
    zeroed mapping. A stage that read an array before writing it would write
    other bytes under the two, or in a second run in the same process."""
    libc = ctypes.CDLL(None)

    def glibc_defaults():
        for param in (cli._M_MMAP_THRESHOLD, cli._M_TRIM_THRESHOLD):
            libc.mallopt(param, 128 * 1024)
        return True

    corpus = work["corpus"]
    outs = {}
    for run in ("fresh", "reused", "reused-again"):
        model = tmp_path / f"model-{run}.bin"
        hyp, cal = tmp_path / f"hyp-{run}.rttm", tmp_path / f"cal-{run}.rttm"
        with monkeypatch.context() as patch:
            if run == "fresh":
                patch.setattr(cli, "_reuse_freed_memory", glibc_defaults)
            assert main(["train", "--manifest", str(corpus / "train/manifest.txt"),
                         "--out", str(model), "--arch", "ftdnn-msa", "--feat-dim", "23",
                         "--width", "16", "--factor-width", "16", "--inner-dim", "8",
                         "--pool-width", "12", "--branch-dim", "8", "--embed-dim", "8",
                         "--epochs", "1", "--batch-size", "4", "--dropout", "0.1",
                         "--seed", "5"]) == 0
            assert main(["diarize", *_conv_args(work), "--backend", str(work["backend"]),
                         "--out", str(hyp), "--threshold", "0.0"]) == 0
            assert _calibrate(work, cal) == 0
        outs[run] = [p.read_bytes() for p in (model, hyp, cal)]
    assert cli._reuse_freed_memory() is True
    assert outs["fresh"] == outs["reused"] == outs["reused-again"]


def test_console_entry_point():
    src = os.path.dirname(os.path.dirname(diarkit.__file__))  # the package under test
    proc = subprocess.run([sys.executable, "-m", "diarkit.cli", "synth",
                           "--out", "unused", "--dry-run"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert "corpus spec valid" in proc.stdout


# Imports diarkit.cli, then runs each argument list of a JSON list through
# main in the same process, and after each step reports the scipy modules
# loaded so far. The import step also reports the peak RSS of a child that
# only imports diarkit.cli: Linux carries a parent's peak over into a child's
# ru_maxrss at exec, so a child of this small interpreter reads its own.
_SCIPY_AFTER_EACH = """
import json, resource, subprocess, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
subprocess.run([sys.executable, "-c", "import diarkit.cli"], check=True)
import_rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
import diarkit.cli
steps = [["import", scipy_modules(), import_rss_kib]]
for args in json.loads(sys.argv[1]):
    code = diarkit.cli.main(args)
    steps.append([args[0], scipy_modules(), code])
print(json.dumps(steps))
"""

# Peak RSS of a fresh interpreter after `import diarkit.cli`: 31 MB measured
# with scipy imported where it is called, 106 MB with all of it at start-up.
IMPORT_RSS_BOUND_KIB = 60 * 1024


def test_commands_load_only_the_scipy_they_call(work, tmp_path):
    """Importing the CLI loads no scipy; synth, train, embed and diarize call
    none and load none; score loads scipy.optimize for its speaker mapping,
    and not scipy.signal or scipy.stats."""
    corpus, hyp = work["corpus"], tmp_path / "hyp.rttm"
    steps = [
        ["synth", "--out", str(tmp_path / "corpus"), "--speakers", "3", "--train-utts", "1",
         "--train-utt-s", "2", "--convs", "1", "--conv-s", "10", "--seed", "1"],
        ["train", "--manifest", str(corpus / "train/manifest.txt"),
         "--out", str(tmp_path / "m.bin"), "--arch", "tdnn", "--feat-dim", "23",
         "--width", "8", "--pool-width", "12", "--epochs", "1", "--batch-size", "4",
         "--seed", "2"],
        ["embed", "--model", str(work["model"]), "--manifest",
         str(corpus / "train/manifest.txt"), "--window", "--out", str(tmp_path / "win.bin")],
        ["diarize", *_conv_args(work), "--backend", str(work["backend"]),
         "--oracle-k", str(corpus / "eval/oracle_k.txt"), "--out", str(hyp)],
        ["score", "--ref", str(corpus / "eval/ref.rttm"), "--hyp", str(hyp),
         "--sad", str(corpus / "eval/sad.lab")],
    ]
    src = os.path.dirname(os.path.dirname(diarkit.__file__))  # the package under test
    proc = subprocess.run([sys.executable, "-c", _SCIPY_AFTER_EACH, json.dumps(steps)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    (_, imported, rss_kib), *ran = json.loads(proc.stdout.splitlines()[-1])
    assert imported == []
    assert rss_kib < IMPORT_RSS_BOUND_KIB
    by_step = {name: (modules, code) for name, modules, code in ran}
    assert all(code == 0 for _, code in by_step.values())
    assert by_step["synth"][0] == by_step["train"][0] == by_step["embed"][0] == []
    assert by_step["diarize"][0] == []
    scored = by_step["score"][0]
    assert "scipy.optimize" in scored
    assert not any(m.split(".")[:2] in (["scipy", "signal"], ["scipy", "stats"]) for m in scored)


# Runs each argument list of a JSON list through `python -m diarkit.cli`, in
# turn, in a fresh process, so that its children's peak RSS is theirs alone.
_MEASURED_RUNS = """
import json, resource, subprocess, sys
runs = [subprocess.run([sys.executable, "-m", "diarkit.cli", *args], capture_output=True,
                       text=True, timeout=120) for args in json.loads(sys.argv[1])]
print(json.dumps({"runs": [[p.returncode, p.stdout, p.stderr] for p in runs],
                  "peak_rss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))
"""


# Peak RSS of a fresh `synth` of a tiny corpus: 39 MB measured with the AR(1)
# smoothing in numpy, 108 MB when it imported scipy.signal for lfilter.
SYNTH_RSS_BOUND_KIB = 60 * 1024


def test_synth_peak_rss_is_bounded(tmp_path):
    src = os.path.dirname(os.path.dirname(diarkit.__file__))  # the package under test
    args = ["synth", "--out", str(tmp_path / "corpus"), "--speakers", "3", "--train-utts", "1",
            "--train-utt-s", "2", "--convs", "1", "--conv-s", "10", "--seed", "1"]
    proc = subprocess.run([sys.executable, "-c", _MEASURED_RUNS, json.dumps([args])],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [code for code, _, _ in report["runs"]] == [0], report["runs"]
    assert report["peak_rss_kib"] < SYNTH_RSS_BOUND_KIB


def test_thirty_minute_conversation_in_bounded_time_and_memory(work, tmp_path):
    """One 1,800 s conversation (about 2,400 segments) through diarize and
    score: under 60 s and 230 MB. Cubic AHC would need minutes at this size.
    The peak RSS measured 234 MB when each SAD run went through the network
    in one pass, and 204 MB with its frames embedded in chunks; AHC over the
    2,400 x 2,400 score matrix now sets it. The bound is that peak plus
    26 MB, below the one-pass figure."""
    corpus = tmp_path / "long"
    assert main(["synth", "--out", str(corpus), "--speakers", "3", "--train-utts", "1",
                 "--train-utt-s", "2", "--convs", "1", "--conv-s", "1800", "--seed", "5"]) == 0
    ev, hyp = corpus / "eval", tmp_path / "hyp.rttm"
    commands = [
        ["diarize", *_conv_args(work, ev / "sad.lab", ev / "feats"),
         "--backend", str(work["backend"]), "--oracle-k", str(ev / "oracle_k.txt"),
         "--out", str(hyp)],
        ["score", "--ref", str(ev / "ref.rttm"), "--hyp", str(hyp), "--sad", str(ev / "sad.lab")],
    ]
    src = os.path.dirname(os.path.dirname(diarkit.__file__))  # the package under test
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _MEASURED_RUNS, json.dumps(commands)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    wall_s = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    measured = json.loads(proc.stdout)
    assert [code for code, _, _ in measured["runs"]] == [0, 0], measured["runs"]
    assert "TOTAL" in measured["runs"][1][1]
    assert wall_s < 60.0
    assert measured["peak_rss_kib"] < 230 * 1024


# ------------------------------------------------- per-conversation outputs

def _conv_args(work, sad=None, feats=None):
    return ["--model", str(work["model"]),
            "--features", str(feats or work["corpus"] / "eval/feats"),
            "--sad", str(sad or work["corpus"] / "eval/sad.lab")]


def _embed_args(work):
    return ["--model", str(work["model"]),
            "--manifest", str(work["corpus"] / "train/manifest.txt"), "--window"]


def _calibrate(work, out, sad=None, feats=None, ref=None):
    return main(["calibrate", *_conv_args(work, sad, feats), "--backend", str(work["backend"]),
                 "--ref", str(ref or work["corpus"] / "eval/ref.rttm"), "--out", str(out)])


@pytest.fixture(scope="module")
def work64(work):
    """The work corpus with a float64 model, made through the library the way
    `diarkit train` made the work model before training ran in float32, so its
    model file holds float64 blobs; and the back-end fit on its embeddings."""
    root = work["root"] / "float64"
    manifest = work["corpus"] / "train/manifest.txt"
    ts = load_train_set(manifest)
    spec = build_architecture("tdnn", len(ts.speakers),
                              dims=DimOverrides(feat_dim=23, width=8, pool_width=12))
    net = initialize_network(spec, seed=2)
    train(net, ts, TrainConfig(epochs=1, batch_size=4, seed=2))
    root.mkdir()
    model = root / "model.bin"
    save_network(net, model)
    emb, backend = root / "train_emb.bin", root / "backend.bin"
    _utterance_archive(model, manifest, emb)
    assert main(["backend-fit", "--embeddings", str(emb), "--out", str(backend)]) == 0
    return {**work, "model": model, "backend": backend}


# Pin every byte train (the model file), embed (the training manifest's
# windows), diarize and calibrate write on the work corpus, for the float32
# model `diarkit train` writes and for a float64 model. The float64 output
# hashes were taken before training moved to float32 and held when batch
# norm's scale and shift were folded: the float64 engine's embeddings moved by
# rounding, below what the float32 embedding archive stores. Its "model" hash
# follows the training arithmetic. The "embed" hashes were taken with the code
# from before embed lost its per-SAD-segment mode, so they also show that the
# manifest archive kept its bytes. The model and the back-end pass through
# LAPACK, so another build may move their last bits and these hashes.
WORK_OUTPUT_SHA256 = {
    "diarize-oracle-k": "70ff4cc211eeb6aced388a9a83dd9a9a6686a22deb92ec15717aec0efc246445",
    "diarize-threshold": "c2c6df154389dbe37492576794a821c2e49a6a228d80af2b4efe1bcc1cb1844a",
    "calibrate": "dd025053995e6bff53ab616e2ebf70f76feb735dfd143de3871395f97f8c57ea",
    "embed": "784eea9c4313d93bb0f41d5c9ef341479cc7fc16287faabfc7a687d10e8cf12f",
    "model": "63697a54476b89adddc96701a7d44adbe59a311548e001231510ffc9ae43802b",
}
FLOAT64_WORK_OUTPUT_SHA256 = {
    "diarize-oracle-k": "70ff4cc211eeb6aced388a9a83dd9a9a6686a22deb92ec15717aec0efc246445",
    "diarize-threshold": "c2c6df154389dbe37492576794a821c2e49a6a228d80af2b4efe1bcc1cb1844a",
    "calibrate": "302371276f3f05c5a2a2a378cc90c427b4f4b760422f0521f304383b623765af",
    "embed": "a80de87c14959c7c52d0438fa6c9c5ab9c07d32f40dc9d31846a2d03d026bcde",
    "model": "c5963f32bff7db474d54883a236aa90cccafead4bf8c1dc1dece8f955a6db369",
}


def _output_digest(work, tmp_path, capsys, name):
    out = tmp_path / "out"
    backend = ["--backend", str(work["backend"])]
    if name == "model":
        out = work["model"]
    elif name == "diarize-oracle-k":
        assert main(["diarize", *_conv_args(work), *backend, "--out", str(out),
                     "--oracle-k", str(work["corpus"] / "eval/oracle_k.txt")]) == 0
    elif name == "diarize-threshold":
        assert main(["diarize", *_conv_args(work), *backend, "--out", str(out),
                     "--threshold", "0.0"]) == 0
    elif name == "calibrate":
        capsys.readouterr()
        assert _calibrate(work, out) == 0
    else:
        assert main(["embed", *_embed_args(work), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.replace(str(out), "OUT") if name == "calibrate" else ""
    return hashlib.sha256(printed.encode() + out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORK_OUTPUT_SHA256))
def test_work_outputs_are_pinned(work, tmp_path, capsys, name):
    assert _output_digest(work, tmp_path, capsys, name) == WORK_OUTPUT_SHA256[name], PIN_KERNELS


@pytest.mark.parametrize("name", sorted(FLOAT64_WORK_OUTPUT_SHA256))
def test_float64_model_outputs_are_pinned(work64, tmp_path, capsys, name):
    digest = _output_digest(work64, tmp_path, capsys, name)
    assert digest == FLOAT64_WORK_OUTPUT_SHA256[name], PIN_KERNELS


def test_train_writes_a_float32_model(work):
    assert work["model"].read_bytes()[4:10] == struct.pack("<I", 3) + b"f4"
    assert load_network(work["model"]).dtype == np.float32


def test_bad_model_dtype_is_exit_3(work, tmp_path, capsys):
    raw = work["model"].read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw[:8] + b"f2" + raw[10:])
    assert main(["embed", *_embed_args({**work, "model": bad}),
                 "--out", str(tmp_path / "x.emb")]) == 3
    assert "unknown parameter dtype 'f2'" in capsys.readouterr().err


def test_model_with_a_tenth_layer_column_is_exit_3(work, tmp_path, capsys):
    """A layer line has nine fields: one with a tenth, such as the skip-mode
    column of format 2, is rejected."""
    raw = work["model"].read_bytes()
    (length,) = struct.unpack("<Q", raw[10:18])
    lines = raw[18 : 18 + length].decode().split("\n")
    first = next(i for i, ln in enumerate(lines) if ln.startswith("layer "))
    lines[first] += " sum"
    text = "\n".join(lines).encode()
    bad = tmp_path / "tenth.bin"
    bad.write_bytes(raw[:10] + struct.pack("<Q", len(text)) + text + raw[18 + length :])
    assert main(["embed", *_embed_args({**work, "model": bad}),
                 "--out", str(tmp_path / "x.emb")]) == 3
    assert f"{lines[first]!r}: bad field count" in capsys.readouterr().err
    assert not (tmp_path / "x.emb").exists()


@pytest.mark.parametrize("bad", ["empty", "nan", "inf"])
def test_bad_embedding_archive_is_exit_3(tmp_path, capsys, bad):
    emb, out = tmp_path / "emb.bin", tmp_path / "b.bin"
    if bad == "empty":
        emb.write_bytes(EMBED_MAGIC + struct.pack("<II", 0, 8))
        message = "header gives 0 embeddings of 8 values"
    else:
        rng = np.random.default_rng(0)
        records = [EmbeddingRecord(f"u{i}", 0.0, 1.5, f"s{i % 3}", rng.normal(size=8))
                   for i in range(12)]
        records[3].vector[5] = float(bad)
        write_embeddings(emb, records)
        message = "record 3 vector contains non-finite values"
    assert main(["backend-fit", "--embeddings", str(emb), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "d=k=0", "k=0", "k>d", "psi<0"])
def test_bad_backend_file_is_exit_3(work, tmp_path, capsys, bad):
    """Each bad header comes with as many values as its dims call for."""
    raw = work["backend"].read_bytes()
    assert struct.unpack_from("<I", raw, 4) == (8,)
    k = struct.unpack_from("<I", raw, 8)[0]
    raw, message = {
        "nan": (raw[:12] + struct.pack("<d", np.nan) + raw[20:],
                "whitener mean contains non-finite values"),
        "d=k=0": (raw[:4] + struct.pack("<II", 0, 0), "d=0, k=0: need 1 <= k <= d"),
        "k=0": (raw[:4] + struct.pack("<II", 8, 0) + raw[12 : 12 + 8 * 8],
                "d=8, k=0: need 1 <= k <= d"),
        "k>d": (raw[:4] + struct.pack("<II", 8, 9) + np.eye(1, 8 + 72 + 9 + 81 + 9).tobytes(),
                "d=8, k=9: need 1 <= k <= d"),
        "psi<0": (raw[:-8 * k] + struct.pack(f"<{k}d", *[-1.0] * k),
                  "bad.bin: PLDA psi must be >= 0, got -1.0"),
    }[bad]
    backend, out = tmp_path / "bad.bin", tmp_path / "x.rttm"
    backend.write_bytes(raw)
    assert main(["diarize", *_conv_args(work), "--backend", str(backend), "--out", str(out),
                 "--threshold", "0.0"]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["diarize-jobs-1", "calibrate"])
def test_backend_of_another_width_is_exit_4(work, tmp_path, capsys, command):
    """A back-end fit on width-10 embeddings, given a width-8 model."""
    rng = np.random.default_rng(0)
    emb, backend = tmp_path / "emb10.bin", tmp_path / "backend10.bin"
    write_embeddings(emb, [EmbeddingRecord(f"u{i}", 0.0, 1.5, f"s{i % 4}", rng.normal(size=10))
                           for i in range(40)])
    assert main(["backend-fit", "--embeddings", str(emb), "--out", str(backend)]) == 0
    capsys.readouterr()
    wide, out = {**work, "backend": backend}, tmp_path / "out.rttm"
    if command == "calibrate":
        assert _calibrate(wide, out) == 4
    else:
        assert main(["diarize", *_conv_args(wide), "--backend", str(backend), "--out", str(out),
                     "--threshold", "0.0", "--jobs", command[-1]]) == 4
    err = capsys.readouterr().err
    assert "the embeddings have 8 dimensions, but the back-end takes 10" in err
    assert not out.exists()


def _one_dimensional_embeddings(work, tmp_path, centre: bool):
    """Train a net with a 1-D embedding and embed the training utterances.
    Its embeddings have one sign; centre shifts the embedding layer's bias
    by their median first, so they take both."""
    manifest = str(work["corpus"] / "train/manifest.txt")
    model, emb = tmp_path / "model.bin", tmp_path / "emb.bin"
    assert main(["train", "--manifest", manifest, "--out", str(model), "--arch", "ftdnn-msa",
                 "--feat-dim", "23", "--width", "8", "--factor-width", "8", "--inner-dim", "4",
                 "--pool-width", "12", "--branch-dim", "4", "--embed-dim", "1",
                 "--epochs", "1", "--batch-size", "4", "--seed", "2"]) == 0
    _utterance_archive(model, manifest, emb)
    if centre:
        net = load_network(model)
        values = [r.vector[0] for r in read_embeddings(emb)]
        net.params["segment1"]["b"] -= net.dtype.type(np.median(values))
        save_network(net, model)
        _utterance_archive(model, manifest, emb)
    records = read_embeddings(emb)
    assert {r.vector.shape for r in records} == {(1,)}
    return emb, np.array([r.vector[0] for r in records])


def test_one_dimensional_embeddings_fit_a_backend(work, tmp_path):
    emb, values = _one_dimensional_embeddings(work, tmp_path, centre=True)
    assert values.min() < 0.0 < values.max()
    assert main(["backend-fit", "--embeddings", str(emb), "--out", str(tmp_path / "b.bin")]) == 0


def test_one_signed_one_dimensional_embeddings_are_exit_4(work, tmp_path, capsys):
    """Length normalization maps 1-D vectors of one sign all to 1.0, so their
    variance is rounding alone; the whitener rejects it instead of scaling by
    about 1e16."""
    emb, values = _one_dimensional_embeddings(work, tmp_path, centre=False)
    assert values.min() > 0.0 or values.max() < 0.0
    assert main(["backend-fit", "--embeddings", str(emb), "--out", str(tmp_path / "b.bin")]) == 4
    assert "covariance is singular" in capsys.readouterr().err
    assert not (tmp_path / "b.bin").exists()


NEAR_EMPTY = "conv001-short"


@pytest.fixture(scope="module")
def near_empty(work, tmp_path_factory):
    """The work corpus's eval set plus one conversation whose every speech
    region is too short to embed: 0.4 s, 0.3 s, and 0.7 s that the features
    (20 s) clip to 0.1 s. Its id sorts between two others."""
    root = tmp_path_factory.mktemp("nearempty")
    ev = work["corpus"] / "eval"
    shutil.copytree(ev / "feats", root / "feats")
    shutil.copy(root / "feats/conv001.fea", root / f"feats/{NEAR_EMPTY}.fea")
    regions = ((1.0, 1.4), (5.0, 5.3), (19.9, 20.6))
    paths = {"sad": root / "sad.lab", "ref": root / "ref.rttm", "counts": root / "k.txt"}
    paths["sad"].write_text((ev / "sad.lab").read_text()
                            + "".join(f"{NEAR_EMPTY} {a} {b}\n" for a, b in regions))
    paths["ref"].write_text((ev / "ref.rttm").read_text()
                            + f"SPEAKER {NEAR_EMPTY} 1 0.000 21.000 <NA> <NA> A <NA> <NA>\n")
    paths["counts"].write_text((ev / "oracle_k.txt").read_text() + f"{NEAR_EMPTY} 2\n")
    return {"feats": root / "feats", **paths}


def _without_near_empty(path):
    return [l for l in path.read_text().splitlines() if l.split()[1] != NEAR_EMPTY]


def _assert_near_empty_is_one_speaker(path):
    entries = read_rttm(path)
    assert {e.conversation_id for e in entries} == {"conv000", "conv001", NEAR_EMPTY, "conv002"}
    assert [(e.start_s, e.end_s, e.speaker) for e in entries
            if e.conversation_id == NEAR_EMPTY] == [(1.0, 20.6, "spk0")]


@pytest.mark.parametrize("jobs", [1])
@pytest.mark.parametrize("rule", ["oracle-k", "threshold"])
def test_near_empty_conversation_diarizes(work, near_empty, tmp_path, jobs, rule):
    def diarize(out, sad, counts):
        stop = ["--oracle-k", str(counts)] if rule == "oracle-k" else ["--threshold", "0.0"]
        return main(["diarize", *_conv_args(work, sad, near_empty["feats"]), *stop,
                     "--backend", str(work["backend"]), "--out", str(out),
                     "--jobs", str(jobs)])

    full, base = tmp_path / "full.rttm", tmp_path / "base.rttm"
    assert diarize(full, near_empty["sad"], near_empty["counts"]) == 0
    _assert_near_empty_is_one_speaker(full)
    assert diarize(base, work["corpus"] / "eval/sad.lab",
                   work["corpus"] / "eval/oracle_k.txt") == 0
    assert _without_near_empty(full) == base.read_text().splitlines()


def test_near_empty_conversation_calibrates(work, near_empty, tmp_path):
    out = tmp_path / "cal.rttm"
    assert _calibrate(work, out, near_empty["sad"], near_empty["feats"], near_empty["ref"]) == 0
    _assert_near_empty_is_one_speaker(out)
    assert main(["score", "--ref", str(near_empty["ref"]), "--hyp", str(out),
                 "--sad", str(near_empty["sad"])]) == 0


@pytest.mark.parametrize("case", ["folds", "ref"])
def test_calibrate_checks_folds_and_reference_before_embedding(work, tmp_path, capsys,
                                                               monkeypatch, case):
    """Four folds over three conversations, or a reference without conv002:
    exit 4 under --dry-run, and a real run exits 4 before it embeds any
    conversation, with nothing written."""
    embedded = []
    real = cli.conversation_embeddings
    monkeypatch.setattr(cli, "conversation_embeddings",
                        lambda *args: embedded.append(args[2]) or real(*args))
    ref, out = work["corpus"] / "eval/ref.rttm", tmp_path / "cal.rttm"
    extra, message = ["--folds", "4"], "need at least 4 conversations for 4 folds"
    if case == "ref":
        lines = ref.read_text().splitlines(keepends=True)
        ref = tmp_path / "ref.rttm"
        ref.write_text("".join(l for l in lines if l.split()[1] != "conv002"))
        extra, message = [], "reference lacks conversations: conv002"
    args = ["calibrate", *_conv_args(work), "--backend", str(work["backend"]),
            "--ref", str(ref), "--out", str(out), *extra]
    for dry_run in (["--dry-run"], []):
        assert main([*args, *dry_run]) == 4
        assert message in capsys.readouterr().err
    assert embedded == [] and not out.exists()


def test_calibrate_fold_without_segment_pairs(work, tmp_path, capsys):
    """Fold 0's only dev conversation is too short to embed, so it has no pair
    score to build a grid from: the fold takes threshold -inf, and conv000,
    which it holds out, is one speaker."""
    sad, out = tmp_path / "sad.lab", tmp_path / "cal.rttm"
    sad.write_text("conv000 0.0 20.0\nconv001 1.0 1.4\n")
    capsys.readouterr()
    assert main(["calibrate", *_conv_args(work, sad), "--backend", str(work["backend"]),
                 "--ref", str(work["corpus"] / "eval/ref.rttm"), "--out", str(out),
                 "--folds", "2"]) == 0
    rows = [r.split() for r in capsys.readouterr().out.splitlines()[1:3]]
    assert rows[0][:2] == ["0", "-inf"]
    assert rows[1][0] == "1" and float(rows[1][1]) > -float("inf")
    entries = read_rttm(out)
    assert {e.conversation_id for e in entries} == {"conv000", "conv001"}
    assert {e.speaker for e in entries if e.conversation_id == "conv000"} == {"spk0"}



def _pure_false_alarm_ref(work, tmp_path):
    """The work reference with conv001's speech moved past its SAD, so that
    conv001's scored regions hold hypothesis speech but no reference speech."""
    ref = tmp_path / "ref.rttm"
    lines = (work["corpus"] / "eval/ref.rttm").read_text().splitlines(keepends=True)
    ref.write_text("".join(l for l in lines if l.split()[1] != "conv001")
                   + "SPEAKER conv001 1 25.000 1.000 <NA> <NA> spk000 <NA> <NA>\n")
    return ref


def test_score_reports_pure_false_alarm(work, tmp_path, capsys):
    """A pure-false-alarm conversation scores with der nan, and its false
    alarm counts in the TOTAL numerator."""
    ref = _pure_false_alarm_ref(work, tmp_path)
    capsys.readouterr()
    assert main(["score", "--ref", str(ref), "--hyp", str(work["hyp"]),
                 "--sad", str(work["corpus"] / "eval/sad.lab")]) == 0
    rows = {r.split()[0]: r.split()[1:] for r in capsys.readouterr().out.splitlines()[1:] if r}
    scored, miss, fa, err, der = rows["conv001"]
    assert (scored, miss, err, der) == ("0.000", "0.000", "0.000", "nan") and float(fa) > 0
    total = [float(v) for v in rows["TOTAL"]]
    parts = [[float(v) for v in rows[c]] for c in ("conv000", "conv002")]
    assert total[2] == pytest.approx(float(fa) + sum(p[2] for p in parts), abs=2e-3)
    assert total[4] == pytest.approx((total[1] + total[2] + total[3]) / total[0], abs=1e-4)


def test_score_reports_a_corpus_without_scored_reference_time(tmp_path, capsys):
    """Reference speech at 5-6 s, hypothesis and SAD at 0-4 s: nothing of the
    reference is scored, so the row and the TOTAL show the false alarm with
    der nan, and score exits 0."""
    ref, hyp, sad = tmp_path / "ref.rttm", tmp_path / "hyp.rttm", tmp_path / "sad.lab"
    ref.write_text("SPEAKER c 1 5.000 1.000 <NA> <NA> spk0 <NA> <NA>\n")
    hyp.write_text("SPEAKER c 1 0.000 4.000 <NA> <NA> a <NA> <NA>\n")
    sad.write_text("c 0.000 4.000\n")
    capsys.readouterr()
    assert main(["score", "--ref", str(ref), "--hyp", str(hyp), "--sad", str(sad)]) == 0
    assert capsys.readouterr().out.strip().splitlines() == [
        "conversation scored miss fa spkerr der",
        "c 0.000 0.000 4.000 0.000 nan",
        "TOTAL 0.000 0.000 4.000 0.000 nan",
    ]


def test_calibrate_skips_pure_false_alarm(work, tmp_path, capsys):
    """conv001, pure false alarm, has no DER: fold 0, whose only dev
    conversation it is, takes threshold -inf, and fold 1, which holds only it
    out, has no eval DER. Every conversation still gets labels."""
    ref, out = _pure_false_alarm_ref(work, tmp_path), tmp_path / "cal.rttm"
    capsys.readouterr()
    assert _calibrate(work, out, ref=ref) == 0
    rows = [r.split() for r in capsys.readouterr().out.splitlines()[1:3]]
    assert rows[0][:3] == ["0", "-inf", "nan"] and rows[0][3] != "nan"
    assert rows[1][2] != "nan" and rows[1][3] == "nan"
    entries = read_rttm(out)
    assert {e.conversation_id for e in entries} == {"conv000", "conv001", "conv002"}
    for conv in ("conv000", "conv002"):
        assert {e.speaker for e in entries if e.conversation_id == conv} == {"spk0"}


# ----------------------------------------------------------- front-end pin

@pytest.fixture(scope="module")
def audio_corpus(tmp_path_factory):
    """A small `synth --audio` corpus."""
    corpus = tmp_path_factory.mktemp("frontend") / "corpus"
    assert main(["synth", "--out", str(corpus), "--speakers", "3", "--train-utts", "2",
                 "--train-utt-s", "3", "--convs", "2", "--conv-s", "12",
                 "--turn-min", "2", "--turn-max", "4", "--audio", "--seed", "5"]) == 0
    return corpus


# Pin every byte of the front end: the wavs and the features `synth --audio`
# writes, and the features and stdout of `diarkit features` on those wavs.
# The MFCC runs through numpy's FFT and scipy's DCT, so another build may move
# the last bits of the derived features and that hash.
FRONT_END_SHA256 = {
    "derived-feats": "e1a7f3606707ab33f4fe60c868b8597409b67c0ac4c8acf9c82b8bf9c85725fd",
    "synth-eval-feats": "23ca96269ceeaa66f318817c1f5dc6cd96d63c95573ae8823f4b07155f8668cf",
    "synth-train-feats": "83c7c58646d55ed4d4cafb5f78d7dc23ffa5ebbe335c52ddf1d45cb32a2c7578",
    "wav": "2bd038729874383c3e02b7fbeea36b67fe0090067d8e2baf942cbddf4f5f2e2d",
}


def _tree_digest(directory, printed=""):
    h = hashlib.sha256(printed.encode())
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", ["derived-feats", "synth-eval-feats", "synth-train-feats",
                                  "wav"])
def test_front_end_outputs_are_pinned(audio_corpus, tmp_path, capsys, name):
    if name == "derived-feats":
        capsys.readouterr()
        assert main(["features", "--wav-dir", str(audio_corpus / "eval/wav"),
                     "--sad", str(audio_corpus / "eval/sad.lab"),
                     "--out", str(tmp_path)]) == 0
        digest = _tree_digest(tmp_path, capsys.readouterr().out)
    else:
        digest = _tree_digest(audio_corpus / {"wav": "eval/wav", "synth-eval-feats": "eval/feats",
                                              "synth-train-feats": "train/feats"}[name])
    assert digest == FRONT_END_SHA256[name], PIN_KERNELS
