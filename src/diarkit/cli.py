"""One binary, eight subcommands, wiring the modules into a pipeline.

Every option can also come from a plain-text ``key=value`` config file
(``--config``); explicit flags win. Each numeric option's valid range is
declared once, as an ``Interval`` in its library module, and both the option
and the library check it. ``--dry-run`` stops after validating the
configuration and the input paths. Exit codes: 0 success, 2 usage or config
error, 3 missing or malformed file, 4 invalid input, 5 diverged training, 1
anything unexpected.

Memory: on glibc, ``main`` and every worker first tell malloc to keep freed
heap memory for reuse. Layer outputs, gradients and temporaries are numpy
arrays of 0.1-4 MB; by default glibc maps each such block on its own and
unmaps it (or trims the heap) when it is freed, so every training step and
every conversation page-faults its activations in again, 4 KiB at a time.
With blocks up to 32 MiB served from the heap and no trimming while a
command runs, the next layer, step or conversation reuses them warm. Larger
blocks still get their own mapping. This changes no arithmetic, so no output.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import synthdata, training
from .backend import (
    CONV_PCA_FRACTION,
    PCA_DIM_DOMAIN,
    PCA_FRACTION_DOMAIN,
    EmbeddingRecord,
    load_backend,
    read_embeddings,
    save_backend,
    write_embeddings,
)
from .clustering import (FOLDS_DOMAIN, GRID_SIZE, GRID_SIZE_DOMAIN, THRESHOLD_DOMAIN,
                         calibrate_threshold)
from .der import (
    COLLAR_DOMAIN,
    DEFAULT_COLLAR_S,
    by_conversation,
    build_hypothesis,
    compute_der,
    der_report,
    read_rttm,
    read_speaker_counts,
    speaker_counts,
    write_rttm,
)
from .errors import FormatError, Interval, InvalidInputError, TrainingDivergedError
from .features import (
    CMN_WINDOW_DOMAIN,
    CMN_WINDOW_FRAMES,
    compute_mfcc,
    read_features,
    read_sad,
    read_wav,
    segment_speech,
    sliding_cmn,
    write_features,
)
from .network import (
    DROPOUT_DOMAIN,
    LAYER_WIDTH_DOMAIN,
    DimOverrides,
    build_architecture,
    initialize_network,
    load_network,
    save_network,
)
from .pipeline import (
    conversation_embeddings,
    conversation_scores,
    diarize_conversation,
    fit_backend,
    load_utterances,
    speech_span,
    windowed_utterance_embeddings,
)
from .training import TrainConfig, check_window_span, load_train_set, train

# train computes in and stores float32; a model file's own dtype decides how
# the other commands run it
_TRAIN_DTYPE = np.float32
_TRAIN_DEFAULTS = TrainConfig()
_DIM_DEFAULTS = DimOverrides()
_SYNTH_DEFAULTS = synthdata.CorpusSpec()
# Upper bound of --jobs: a process pool starts all its workers at once, and
# each worker holds its own copy of the model and back-end.
MAX_JOBS = 64


# glibc mallopt parameters; 32 MiB is the largest mmap threshold it accepts on
# 64-bit systems
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 1 << 30


def _reuse_freed_memory() -> bool:
    """Keep freed heap blocks for reuse instead of returning them to the OS,
    so the next layer's arrays do not page-fault in again (see the module
    docstring). A no-op where libc has no mallopt. Returns whether libc
    accepted both settings."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    accepted = [mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES),
                mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)]
    return accepted == [1, 1]


class _UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_taps(raw: str) -> tuple[str, ...]:
    return tuple(t for t in (p.strip() for p in raw.split(",")) if t)


_FLAG = object()  # sentinel converter for boolean switches


@dataclass(frozen=True)
class _Opt:
    flag: str
    conv: object = str
    default: object = None
    required: bool = False
    help: str = ""
    choices: tuple = ()
    domain: Optional[Interval] = None  # the library's declared range of the converted value

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


_COMMON = (
    _Opt("--config", str, help="key=value file supplying any unset option"),
    _Opt("--dry-run", _FLAG, help="validate configuration and inputs, then stop"),
)
_SEED = _Opt("--seed", int, help="RNG seed (falls back to DIARKIT_SEED, then 0)",
             domain=training.SEED_DOMAIN)
_JOBS = _Opt("--jobs", int, default=1,
             help=f"parallel workers for per-conversation stages, at most {MAX_JOBS}")
_PCA_FRACTION = _Opt("--pca-fraction", float, CONV_PCA_FRACTION,
                     help="retained fraction for conversation-level PCA",
                     domain=PCA_FRACTION_DOMAIN)
_COLLAR = _Opt("--collar", float, DEFAULT_COLLAR_S, domain=COLLAR_DOMAIN)

_COMMANDS: dict[str, tuple[str, tuple[_Opt, ...]]] = {
    "features": (
        "compute MFCC+CMN features for every conversation in a SAD file",
        (
            _Opt("--wav-dir", required=True, help="directory of {conversation}.wav files"),
            _Opt("--sad", required=True, help="speech regions, one 'conv start end' per line"),
            _Opt("--out", required=True, help="output directory for {conversation}.fea"),
            _Opt("--cmn-window", int, CMN_WINDOW_FRAMES, help="sliding CMN window in frames",
                 domain=CMN_WINDOW_DOMAIN),
            _JOBS,
        ),
    ),
    "synth": (
        "generate a synthetic train/eval corpus",
        (
            _Opt("--out", required=True, help="corpus root directory"),
            _Opt("--speakers", int, _SYNTH_DEFAULTS.n_speakers, domain=synthdata.SPEAKERS_DOMAIN),
            _Opt("--separation", float, _SYNTH_DEFAULTS.separation,
                 help="radius of the speaker-mean sphere", domain=synthdata.SEPARATION_DOMAIN),
            _Opt("--train-utts", int, _SYNTH_DEFAULTS.train_utts, help="utterances per speaker",
                 domain=synthdata.TRAIN_UTTS_DOMAIN),
            _Opt("--train-utt-s", float, _SYNTH_DEFAULTS.train_utt_s,
                 domain=synthdata.UTTERANCE_DOMAIN),
            _Opt("--convs", int, _SYNTH_DEFAULTS.n_convs, domain=synthdata.CONVS_DOMAIN),
            _Opt("--conv-s", float, _SYNTH_DEFAULTS.conv_s, domain=synthdata.CONV_S_DOMAIN),
            _Opt("--turn-min", float, _SYNTH_DEFAULTS.turn_min_s, domain=synthdata.TURN_DOMAIN),
            _Opt("--turn-max", float, _SYNTH_DEFAULTS.turn_max_s, domain=synthdata.TURN_DOMAIN),
            _Opt("--speakers-per-conv", int, _SYNTH_DEFAULTS.speakers_per_conv,
                 domain=synthdata.SPEAKERS_DOMAIN),
            _Opt("--smoothing", float, _SYNTH_DEFAULTS.smoothing,
                 domain=synthdata.SMOOTHING_DOMAIN),
            _Opt("--audio", _FLAG, help="also synthesize waveforms and derive features from them"),
            _SEED,
        ),
    ),
    "train": (
        "train an embedding network on a labeled utterance manifest; training runs in "
        "float32 and the model is stored in float32",
        (
            _Opt("--manifest", required=True, help="'utt_id speaker_id feature_path' lines"),
            _Opt("--out", required=True, help="output model file"),
            _Opt("--arch", str, "ftdnn-msa", choices=("tdnn", "etdnn", "ftdnn", "ftdnn-msa")),
            _Opt("--taps", _parse_taps, help="comma-separated pooling taps (ftdnn-msa only)"),
            _Opt("--epochs", int, _TRAIN_DEFAULTS.epochs, domain=training.EPOCHS_DOMAIN),
            _Opt("--batch-size", int, _TRAIN_DEFAULTS.batch_size,
                 domain=training.BATCH_SIZE_DOMAIN),
            _Opt("--lr-start", float, _TRAIN_DEFAULTS.lr_start,
                 domain=training.LEARNING_RATE_DOMAIN),
            _Opt("--lr-end", float, _TRAIN_DEFAULTS.lr_end, domain=training.LEARNING_RATE_DOMAIN),
            _Opt("--momentum", float, _TRAIN_DEFAULTS.momentum, domain=training.MOMENTUM_DOMAIN),
            _Opt("--l2", float, _TRAIN_DEFAULTS.l2_coeff, domain=training.L2_DOMAIN),
            _Opt("--dropout", float, _TRAIN_DEFAULTS.dropout_prob, domain=DROPOUT_DOMAIN),
            _Opt("--ortho-interval", int, _TRAIN_DEFAULTS.ortho_interval,
                 domain=training.ORTHO_INTERVAL_DOMAIN),
            _Opt("--window-frames", int, _TRAIN_DEFAULTS.window_frames,
                 domain=training.WINDOW_FRAMES_DOMAIN),
            _Opt("--window-shift", int, _TRAIN_DEFAULTS.window_shift,
                 domain=training.WINDOW_SHIFT_DOMAIN),
            _Opt("--min-window-frames", int, _TRAIN_DEFAULTS.min_window_frames,
                 domain=training.MIN_WINDOW_FRAMES_DOMAIN),
            _Opt("--feat-dim", int, _DIM_DEFAULTS.feat_dim, domain=LAYER_WIDTH_DOMAIN),
            _Opt("--width", int, _DIM_DEFAULTS.width, domain=LAYER_WIDTH_DOMAIN),
            _Opt("--factor-width", int, _DIM_DEFAULTS.factor_width, domain=LAYER_WIDTH_DOMAIN),
            _Opt("--inner-dim", int, _DIM_DEFAULTS.inner_dim, domain=LAYER_WIDTH_DOMAIN),
            _Opt("--pool-width", int, _DIM_DEFAULTS.pool_width, domain=LAYER_WIDTH_DOMAIN),
            _Opt("--branch-dim", int, _DIM_DEFAULTS.branch_dim, domain=LAYER_WIDTH_DOMAIN),
            _Opt("--embed-dim", int, _DIM_DEFAULTS.embed_dim, domain=LAYER_WIDTH_DOMAIN),
            _SEED,
        ),
    ),
    "embed": (
        "extract embeddings, either of each manifest utterance's sliding windows (for "
        "back-end training) or per SAD segment",
        (
            _Opt("--model", required=True),
            _Opt("--out", required=True, help="output embedding archive"),
            _Opt("--manifest", help="labeled utterances, embedded window by window"),
            _Opt("--window", _FLAG,
                 help="required with --manifest: embed sliding windows of each utterance, "
                      "cut as diarize cuts segments"),
            _Opt("--features", help="feature directory (segment mode, with --sad)"),
            _Opt("--sad", help="speech regions (segment mode, with --features)"),
            _JOBS,
        ),
    ),
    "backend-fit": (
        "fit the PCA whitener and PLDA on labeled embeddings",
        (
            _Opt("--embeddings", required=True, help="archive of speaker-labeled embeddings"),
            _Opt("--out", required=True, help="output backend file"),
            _Opt("--pca-dim", int, help="keep this many whitened dimensions", domain=PCA_DIM_DOMAIN),
        ),
    ),
    "diarize": (
        "cluster each conversation's segments and write an RTTM hypothesis; a conversation "
        "with no segment long enough to embed is one speaker over its speech",
        (
            _Opt("--model", required=True),
            _Opt("--backend", required=True),
            _Opt("--features", required=True, help="directory of {conversation}.fea"),
            _Opt("--sad", required=True),
            _Opt("--out", required=True, help="output RTTM"),
            _Opt("--threshold", float, help="stop merging below this score",
                 domain=THRESHOLD_DOMAIN),
            _Opt("--oracle-k", help="file of 'conversation num_speakers' lines; a count "
                                    "above a conversation's segments is capped at that count"),
            _PCA_FRACTION,
            _JOBS,
        ),
    ),
    "score": (
        "score a hypothesis RTTM against a reference",
        (
            _Opt("--ref", required=True),
            _Opt("--hyp", required=True),
            _Opt("--sad", required=True),
            _COLLAR,
            _Opt("--breakdown", _FLAG, help="add per-speaker-count groups to the report"),
        ),
    ),
    "calibrate": (
        "pick clustering thresholds by cross-validated DER and write held-out labels; a "
        "conversation with no segment long enough to embed is one speaker over its speech, "
        "and a fold whose dev conversations have no segment pair gets threshold -inf "
        "(each held-out conversation is one speaker)",
        (
            _Opt("--model", required=True),
            _Opt("--backend", required=True),
            _Opt("--features", required=True),
            _Opt("--sad", required=True),
            _Opt("--ref", required=True),
            _Opt("--out", required=True, help="RTTM from each conversation's held-out fold"),
            _Opt("--folds", int, 2, domain=FOLDS_DOMAIN),
            _Opt("--grid-size", int, GRID_SIZE, domain=GRID_SIZE_DOMAIN),
            _PCA_FRACTION,
            _COLLAR,
        ),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="diarkit", description=__doc__.splitlines()[0])
    subs = top.add_subparsers(dest="command", metavar="command")
    for name, (help_text, opts) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text, description=help_text)
        for opt in opts + _COMMON:
            if opt.conv is _FLAG:
                sub.add_argument(opt.flag, action="store_const", const=True,
                                 default=None, help=opt.help)
            else:
                # raw strings here; one shared conversion path handles both
                # command-line and config-file values
                sub.add_argument(opt.flag, default=None, help=opt.help, metavar=opt.dest.upper())
    return top


def _read_config(path) -> dict[str, str]:
    values = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise _UsageError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _convert(opt: _Opt, raw, source: str):
    if opt.conv is _FLAG:
        value = _parse_bool(raw) if isinstance(raw, str) else bool(raw)
    else:
        try:
            value = opt.conv(raw)
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"{source} {opt.flag}: {exc}") from exc
    if opt.choices and value not in opt.choices:
        raise _UsageError(
            f"{source} {opt.flag}: {value!r} is not one of {', '.join(opt.choices)}")
    if opt.domain is not None:
        try:
            opt.domain.check(value)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{source} {opt.flag}: {exc}") from exc
    return value


def _finalize(command: str, ns: argparse.Namespace) -> argparse.Namespace:
    """Merge config-file values under explicit flags, convert and check them,
    apply defaults. Every value is checked here, before any work starts."""
    opts = _COMMANDS[command][1] + _COMMON
    known = {o.dest: o for o in opts}
    config = _read_config(ns.config) if ns.config else {}
    for key in config:
        if key not in known or key == "config":
            raise _UsageError(f"config key {key!r} is not an option of '{command}'")
    for opt in opts:
        raw = getattr(ns, opt.dest)
        if raw is not None:
            value = raw if opt.conv is _FLAG else _convert(opt, raw, "argument")
        elif opt.dest in config:
            value = _convert(opt, config[opt.dest], "config")
        else:
            value = False if opt.conv is _FLAG else opt.default
        setattr(ns, opt.dest, value)
    missing = [o.flag for o in opts if o.required and getattr(ns, o.dest) is None]
    if missing:
        raise _UsageError(f"diarkit {command}: missing {', '.join(missing)}")
    if hasattr(ns, "jobs") and not 1 <= ns.jobs <= MAX_JOBS:
        raise _UsageError(f"--jobs must be between 1 and {MAX_JOBS}, got {ns.jobs}")
    return ns


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("DIARKIT_SEED")
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise _UsageError(f"DIARKIT_SEED must be an integer, got {env!r}") from None
    try:
        return training.SEED_DOMAIN.check(seed)
    except InvalidInputError as exc:
        raise InvalidInputError(f"DIARKIT_SEED: {exc}") from None


def _require_file(path, what: str) -> None:
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{what} not found: {path}")


def _atomic(path, write_fn: Callable) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    parent = os.path.dirname(os.path.abspath(os.fspath(path)))
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".{os.path.basename(os.fspath(path))}.{os.getpid()}.tmp")
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _sad_by_conversation(path) -> dict[str, list]:
    marks = read_sad(path)
    if not marks:
        raise InvalidInputError(f"{path}: no speech regions")
    return by_conversation(marks)


def _run_jobs(jobs: int, fn, tasks, initializer=None, initargs=()):
    """Ordered map over tasks, in-process when jobs == 1; never more workers
    than tasks."""
    if jobs == 1 or len(tasks) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)), initializer=initializer,
                             initargs=initargs) as pool:
        return list(pool.map(fn, tasks))


# ------------------------------------------------------ per-conversation work

_WORKER: dict = {}


def _worker_init(model_path, backend_path=None, pca_fraction=CONV_PCA_FRACTION):
    """Load the network, plus the back-end when one is given, once per worker."""
    _reuse_freed_memory()
    _WORKER["net"] = load_network(model_path)
    _WORKER["backend"] = (None if backend_path is None
                          else (*load_backend(backend_path), pca_fraction))


def _conversation_tasks(sad_path, directory, ext="fea", what="features") -> list[tuple]:
    """(conversation, input path, SAD marks) per conversation of the SAD file,
    in id order; every {directory}/{conversation}.{ext} must exist."""
    tasks = []
    for conv, marks in _sad_by_conversation(sad_path).items():
        path = os.path.join(directory, f"{conv}.{ext}")
        _require_file(path, f"{what} for {conv}")
        tasks.append((conv, path, marks))
    return tasks


def _embedded(task):
    _, feats_path, marks = task
    return conversation_embeddings(_WORKER["net"], read_features(feats_path), marks)


def _scored(task):
    """(segments, pair scores) of one conversation. One with no segment long
    enough to embed gets its speech span as its one segment."""
    segments, vecs = _embedded(task)
    return segments or [speech_span(task[2])], conversation_scores(vecs, *_WORKER["backend"])


# ------------------------------------------------------------------ features

def _features_one(job):
    (conv, wav_path, marks), out_dir, cmn_window = job
    feats = sliding_cmn(compute_mfcc(read_wav(wav_path)), cmn_window)
    _atomic(os.path.join(out_dir, f"{conv}.fea"), lambda p: write_features(p, feats))
    return f"{conv} {feats.shape[0]} frames, {len(segment_speech(marks))} segments"


def _cmd_features(ns) -> int:
    tasks = [(task, ns.out, ns.cmn_window)
             for task in _conversation_tasks(ns.sad, ns.wav_dir, "wav", "waveform")]
    if ns.dry_run:
        print(f"dry run: {len(tasks)} conversations validated")
        return 0
    for line in _run_jobs(ns.jobs, _features_one, tasks):
        print(line)
    return 0


# --------------------------------------------------------------------- synth

def _cmd_synth(ns) -> int:
    seed = _resolve_seed(ns.seed)
    try:  # each value is in its domain; what is left to fail is two relations
        synthdata.check_turns(ns.conv_s, (ns.turn_min, ns.turn_max))
    except InvalidInputError as exc:
        raise InvalidInputError(f"--conv-s, --turn-min, --turn-max: {exc}") from None
    try:
        spec = synthdata.CorpusSpec(
            n_speakers=ns.speakers,
            separation=ns.separation,
            train_utts=ns.train_utts,
            train_utt_s=ns.train_utt_s,
            n_convs=ns.convs,
            conv_s=ns.conv_s,
            turn_min_s=ns.turn_min,
            turn_max_s=ns.turn_max,
            speakers_per_conv=ns.speakers_per_conv,
            smoothing=ns.smoothing,
            seed=seed,
            audio=ns.audio,
        )
    except InvalidInputError as exc:
        raise InvalidInputError(f"--speakers, --speakers-per-conv: {exc}") from None
    if ns.dry_run:
        print(f"dry run: corpus spec valid ({spec.n_speakers} speakers, {spec.n_convs} conversations)")
        return 0
    paths = synthdata.write_corpus(ns.out, spec)
    for key in sorted(paths):
        print(f"{key} {paths[key]}")
    return 0


# --------------------------------------------------------------------- train

def _cmd_train(ns) -> int:
    dims = DimOverrides(
        feat_dim=ns.feat_dim, width=ns.width, factor_width=ns.factor_width,
        inner_dim=ns.inner_dim, pool_width=ns.pool_width,
        branch_dim=ns.branch_dim, embed_dim=ns.embed_dim,
    )
    seed = _resolve_seed(ns.seed)
    try:  # each value is in its domain; what is left to fail is the two windows' order
        cfg = TrainConfig(
            epochs=ns.epochs, batch_size=ns.batch_size, lr_start=ns.lr_start,
            lr_end=ns.lr_end, momentum=ns.momentum, l2_coeff=ns.l2,
            dropout_prob=ns.dropout, ortho_interval=ns.ortho_interval,
            window_frames=ns.window_frames, window_shift=ns.window_shift,
            min_window_frames=ns.min_window_frames, seed=seed,
        )
    except InvalidInputError as exc:
        raise InvalidInputError(f"--min-window-frames, --window-frames: {exc}") from None
    _require_file(ns.manifest, "manifest")
    ts = load_train_set(ns.manifest)
    dims_seen = sorted({dim for _, dim in ts.shapes})
    if dims_seen != [ns.feat_dim]:
        raise InvalidInputError(f"--feat-dim {ns.feat_dim} does not match the "
                                f"features' dimension {', '.join(map(str, dims_seen))}")
    arch = ns.arch.replace("-", "_")
    spec = build_architecture(arch, num_speakers=len(ts.speakers),
                              taps=ns.taps, dims=dims)
    try:
        check_window_span(spec, cfg.min_window_frames)
    except InvalidInputError as exc:
        raise InvalidInputError(f"--min-window-frames: {exc}") from None
    if ns.dry_run:
        print(f"dry run: {arch} with {len(ts.speakers)} speakers, "
              f"{len(ts.features)} utterances")
        return 0
    print(f"training {arch}: {len(ts.features)} utterances, {len(ts.speakers)} speakers")
    net = initialize_network(spec, seed=cfg.seed).astype(_TRAIN_DTYPE)
    train(net, ts, cfg, log=print)
    _atomic(ns.out, lambda p: save_network(net, p))
    print(f"model {ns.out}")
    return 0


# --------------------------------------------------------------------- embed

def _embed_one(task):
    segments, vecs = _embedded(task)
    return [EmbeddingRecord(task[0], s.start_s, s.end_s, "", v)
            for s, v in zip(segments, vecs)]


def _cmd_embed(ns) -> int:
    segment_mode = ns.features is not None or ns.sad is not None
    if segment_mode == (ns.manifest is not None):
        raise _UsageError("diarkit embed: use either --manifest or --features with --sad")
    if segment_mode and (ns.features is None or ns.sad is None):
        raise _UsageError("diarkit embed: segment mode needs both --features and --sad")
    if ns.window == segment_mode:
        raise _UsageError("diarkit embed: --manifest needs --window, and segment mode "
                          "takes no --window")
    _require_file(ns.model, "model")

    if not segment_mode:
        _require_file(ns.manifest, "manifest")
        net = load_network(ns.model)
        if ns.dry_run:
            entries, _ = load_utterances(net, ns.manifest)
            print(f"dry run: {len(entries)} utterances validated")
            return 0
        records = windowed_utterance_embeddings(net, ns.manifest)
    else:
        tasks = _conversation_tasks(ns.sad, ns.features)
        if ns.dry_run:
            print(f"dry run: {len(tasks)} conversations validated")
            return 0
        batches = _run_jobs(ns.jobs, _embed_one, tasks,
                            initializer=_worker_init, initargs=(ns.model,))
        records = [r for batch in batches for r in batch]
    _atomic(ns.out, lambda p: write_embeddings(p, records))
    print(f"{len(records)} embeddings {ns.out}")
    return 0


# --------------------------------------------------------------- backend-fit

def _cmd_backend_fit(ns) -> int:
    _require_file(ns.embeddings, "embedding archive")
    if ns.dry_run:
        print("dry run: inputs present")
        return 0
    records = read_embeddings(ns.embeddings)
    whitener, plda = fit_backend(records, pca_dim=ns.pca_dim)
    _atomic(ns.out, lambda p: save_backend(p, whitener, plda))
    print(f"backend on {len(records)} embeddings, "
          f"{whitener.transform.shape[1]} -> {whitener.transform.shape[0]} dims, {ns.out}")
    return 0


# ------------------------------------------------------------------- diarize

def _diarize_one(job):
    task, threshold, oracle_k = job
    segments, scores = _scored(task)
    return diarize_conversation(segments, scores, threshold=threshold, oracle_k=oracle_k)


def _cmd_diarize(ns) -> int:
    if (ns.threshold is None) == (ns.oracle_k is None):
        raise _UsageError("diarkit diarize: use exactly one of --threshold or --oracle-k")
    _require_file(ns.model, "model")
    _require_file(ns.backend, "backend")
    counts = None
    if ns.oracle_k is not None:
        _require_file(ns.oracle_k, "oracle speaker counts")
        counts = read_speaker_counts(ns.oracle_k)
    jobs = []
    for task in _conversation_tasks(ns.sad, ns.features):
        if counts is not None and task[0] not in counts:
            raise InvalidInputError(f"{ns.oracle_k}: no speaker count for {task[0]}")
        jobs.append((task, ns.threshold, None if counts is None else counts[task[0]]))
    if ns.dry_run:
        print(f"dry run: {len(jobs)} conversations validated")
        return 0
    per_conv = _run_jobs(ns.jobs, _diarize_one, jobs, initializer=_worker_init,
                         initargs=(ns.model, ns.backend, ns.pca_fraction))
    entries = [e for conv_entries in per_conv for e in conv_entries]
    _atomic(ns.out, lambda p: write_rttm(entries, p))
    print(f"{len(jobs)} conversations {ns.out}")
    return 0


# --------------------------------------------------------------------- score

def _grouped_scores(ref_entries, hyp_entries, sad_path, collar_s):
    ref_by = by_conversation(ref_entries)
    hyp_by = by_conversation(hyp_entries)
    sad_by = _sad_by_conversation(sad_path)
    unmatched = sorted(set(hyp_by) - set(ref_by))
    if unmatched:
        raise InvalidInputError(
            f"hypothesis has conversations missing from the reference: {', '.join(unmatched)}")
    results = {}
    for conv in sorted(ref_by):
        if conv not in sad_by:
            raise InvalidInputError(f"no SAD regions for {conv}")
        results[conv] = compute_der(ref_by[conv], hyp_by.get(conv, []),
                                    sad_by[conv], collar_s=collar_s)
    return results


def _cmd_score(ns) -> int:
    for path, what in ((ns.ref, "reference RTTM"), (ns.hyp, "hypothesis RTTM"),
                       (ns.sad, "SAD file")):
        _require_file(path, what)
    if ns.dry_run:
        print("dry run: inputs present")
        return 0
    ref_entries = read_rttm(ns.ref)
    results = _grouped_scores(ref_entries, read_rttm(ns.hyp), ns.sad, ns.collar)
    counts = speaker_counts(ref_entries) if ns.breakdown else None
    print(der_report(results, counts=counts))
    return 0


# ----------------------------------------------------------------- calibrate

def _cmd_calibrate(ns) -> int:
    for path, what in ((ns.model, "model"), (ns.backend, "backend"),
                       (ns.ref, "reference RTTM"), (ns.sad, "SAD file")):
        _require_file(path, what)
    tasks = _conversation_tasks(ns.sad, ns.features)
    if ns.dry_run:
        print(f"dry run: {len(tasks)} conversations validated")
        return 0

    marks_by = {conv: marks for conv, _, marks in tasks}
    ref_by = by_conversation(read_rttm(ns.ref))
    missing = sorted(set(marks_by) - set(ref_by))
    if missing:
        raise InvalidInputError(f"reference lacks conversations: {', '.join(missing)}")
    _worker_init(ns.model, ns.backend, ns.pca_fraction)
    scored = dict(zip(marks_by, map(_scored, tasks)))

    def der_fn(conv: str, labels) -> float:
        hyp = build_hypothesis(scored[conv][0], labels.tolist())
        return compute_der(ref_by[conv], hyp, marks_by[conv], collar_s=ns.collar).der

    labels_by, reports = calibrate_threshold({c: s for c, (_, s) in scored.items()}, der_fn,
                                             folds=ns.folds, grid_size=ns.grid_size)
    print("fold threshold dev_der eval_der")
    for r in reports:
        print(f"{r.fold} {r.threshold:.6f} {r.dev_der:.4f} {r.eval_der:.4f}")
    entries = []
    for conv in sorted(labels_by):
        entries.extend(build_hypothesis(scored[conv][0], labels_by[conv].tolist()))
    _atomic(ns.out, lambda p: write_rttm(entries, p))
    print(f"{len(labels_by)} conversations {ns.out}")
    return 0


# ---------------------------------------------------------------- entry point

_HANDLERS = {
    "features": _cmd_features,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "embed": _cmd_embed,
    "backend-fit": _cmd_backend_fit,
    "diarize": _cmd_diarize,
    "score": _cmd_score,
    "calibrate": _cmd_calibrate,
}


# Exit code per exception type; the first matching row wins.
_EXIT_CODES = (
    (_UsageError, 2),
    (FormatError, 3),
    (OSError, 3),
    (TrainingDivergedError, 5),
    (InvalidInputError, 4),
)


def main(argv=None) -> int:
    _reuse_freed_memory()
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    if ns.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        ns = _finalize(ns.command, ns)
        return _HANDLERS[ns.command](ns)
    except Exception as exc:
        for exc_type, code in _EXIT_CODES:
            if isinstance(exc, exc_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"unexpected error: {exc!r}", file=sys.stderr)  # last resort
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
