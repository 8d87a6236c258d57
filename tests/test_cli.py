"""Command-line behavior: exit codes, config merging, reproducible outputs.

The fixtures run the real subcommands in-process on a miniature corpus, so
these tests double as an end-to-end check of the wiring.
"""

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys

import pytest

import diarkit
from diarkit import cli
from diarkit.backend import read_embeddings
from diarkit.cli import main
from diarkit.der import read_rttm
from diarkit.errors import TrainingDivergedError
from diarkit.features import read_sad


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
    assert main(["embed", "--model", str(model), "--manifest",
                 str(corpus / "train/manifest.txt"), "--out", str(emb)]) == 0
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


def test_diarize_requires_exactly_one_stop_rule(work, capsys):
    base = ["diarize", "--model", str(work["model"]), "--backend", str(work["backend"]),
            "--features", str(work["corpus"] / "eval/feats"),
            "--sad", str(work["corpus"] / "eval/sad.lab"),
            "--out", str(work["root"] / "x.rttm")]
    assert main(base) == 2
    assert main(base + ["--threshold", "0", "--oracle-k",
                        str(work["corpus"] / "eval/oracle_k.txt")]) == 2


def test_embed_mode_selection(work):
    assert main(["embed", "--model", str(work["model"]),
                 "--out", str(work["root"] / "x.bin")]) == 2
    assert main(["embed", "--model", str(work["model"]),
                 "--features", str(work["corpus"] / "eval/feats"),
                 "--out", str(work["root"] / "x.bin")]) == 2  # --sad missing
    assert main(["embed", "--model", str(work["model"]), "--window",
                 "--features", str(work["corpus"] / "eval/feats"),
                 "--sad", str(work["corpus"] / "eval/sad.lab"),
                 "--out", str(work["root"] / "x.bin")]) == 2  # --window needs --manifest


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

def test_diarize_jobs_identical_output(work, tmp_path):
    par = tmp_path / "par.rttm"
    assert main(["diarize", "--model", str(work["model"]), "--backend", str(work["backend"]),
                 "--features", str(work["corpus"] / "eval/feats"),
                 "--sad", str(work["corpus"] / "eval/sad.lab"),
                 "--oracle-k", str(work["corpus"] / "eval/oracle_k.txt"),
                 "--out", str(par), "--jobs", "2"]) == 0
    assert par.read_bytes() == work["hyp"].read_bytes()


def test_embed_rerun_is_bit_identical(work, tmp_path):
    outs = []
    for name in ("e1.bin", "e2.bin"):
        out = tmp_path / name
        assert main(["embed", "--model", str(work["model"]),
                     "--features", str(work["corpus"] / "eval/feats"),
                     "--sad", str(work["corpus"] / "eval/sad.lab"),
                     "--out", str(out)]) == 0
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


# ------------------------------------------------- per-conversation outputs

def _conv_args(work, sad=None, feats=None):
    return ["--model", str(work["model"]),
            "--features", str(feats or work["corpus"] / "eval/feats"),
            "--sad", str(sad or work["corpus"] / "eval/sad.lab")]


def _calibrate(work, out, sad=None, feats=None, ref=None):
    return main(["calibrate", *_conv_args(work, sad, feats), "--backend", str(work["backend"]),
                 "--ref", str(ref or work["corpus"] / "eval/ref.rttm"), "--out", str(out)])


# Pin every byte diarize, calibrate and segment-mode embed write on the work
# corpus. The model and the back-end pass through LAPACK, so another build may
# move their last bits and these hashes.
WORK_OUTPUT_SHA256 = {
    "diarize-oracle-k": "70ff4cc211eeb6aced388a9a83dd9a9a6686a22deb92ec15717aec0efc246445",
    "diarize-threshold": "c2c6df154389dbe37492576794a821c2e49a6a228d80af2b4efe1bcc1cb1844a",
    "calibrate": "302371276f3f05c5a2a2a378cc90c427b4f4b760422f0521f304383b623765af",
    "embed": "3a995615704381f51d2e93740908aa23aad29aa0d5632d45815c80a24b34f1a4",
}


@pytest.mark.parametrize("name", sorted(WORK_OUTPUT_SHA256))
def test_work_outputs_are_pinned(work, tmp_path, capsys, name):
    out = tmp_path / "out"
    backend = ["--backend", str(work["backend"])]
    if name == "diarize-oracle-k":
        assert main(["diarize", *_conv_args(work), *backend, "--out", str(out),
                     "--oracle-k", str(work["corpus"] / "eval/oracle_k.txt")]) == 0
    elif name == "diarize-threshold":
        assert main(["diarize", *_conv_args(work), *backend, "--out", str(out),
                     "--threshold", "0.0"]) == 0
    elif name == "calibrate":
        capsys.readouterr()
        assert _calibrate(work, out) == 0
    else:
        assert main(["embed", *_conv_args(work), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.replace(str(out), "OUT") if name == "calibrate" else ""
    digest = hashlib.sha256(printed.encode() + out.read_bytes()).hexdigest()
    assert digest == WORK_OUTPUT_SHA256[name]


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


@pytest.mark.parametrize("jobs", [1, 2])
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


def test_near_empty_conversation_embeds_nothing(work, near_empty, tmp_path):
    full, base = tmp_path / "full.emb", tmp_path / "base.emb"
    assert main(["embed", *_conv_args(work, near_empty["sad"], near_empty["feats"]),
                 "--out", str(full)]) == 0
    assert main(["embed", *_conv_args(work), "--out", str(base)]) == 0
    assert NEAR_EMPTY not in {r.conversation_id for r in read_embeddings(full)}
    assert full.read_bytes() == base.read_bytes()


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
