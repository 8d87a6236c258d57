"""Run one benchmark workload of diarkit and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it builds nothing and imports diarkit from
``src/``. With ``--trace 0`` it sets the workload up several times, then
repeats the untraced timed section in one worker process for at least
``--seconds`` seconds and reports the end-to-end metrics as medians. With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the first traced pass. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the environment. Both also go to
``perfbench/results/``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKER = os.path.join(HERE, "worker.py")

SETUPS = 3           # at least this many set-ups per untraced run ...
SETUP_SECONDS = 2.0  # ... and more while they take less than this in all
MIN_PASSES = 2       # so every run also checks that a pass repeats byte for byte
STAGE_METRIC = {"train": "train_s", "embed": "embed_s", "diarize": "diarize_s",
                "calibrate": "calibrate_s"}
QUALITY = ("der_oracle_k", "der_calibrated", "final_loss")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _environment(args):
    import numpy
    import scipy

    from perfbench.workloads import tree_digest

    source = _digest(tree_digest(os.path.join(SRC, "diarkit")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas_threads": _openblas_threads(),
        "git_commit": _git_commit(), "source_sha256": source,
    }


def _digest(files: dict) -> str:
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()


class Worker:
    """The one worker process (``worker.py``) that runs every timed pass.

    Leaving the ``with`` block closes its input and waits until it has
    ended; a worker that does not end within ``grace`` seconds, or that is
    left by an exception, is killed.
    """

    def __init__(self, grace: float = 30.0):
        self.grace = grace
        self.proc = None

    def run_pass(self, **request) -> dict:
        if self.proc is None:  # started at the first pass, so not during set-up
            self.proc = subprocess.Popen(
                [sys.executable, WORKER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, env={**os.environ, "PERFBENCH_PARENT": str(os.getpid())})
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"worker ended with code {self.proc.wait()}")
        return json.loads(answer)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.proc is None:
            return False
        if exc_type is not None:  # interrupted, maybe mid-pass: do not wait for it
            self.proc.kill()
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=self.grace)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return False


def _run(args, work: str, worker: Worker):
    from perfbench import workloads

    w = workloads.WORKLOADS[args.workload]
    attempted, failures, record = 0, [], {}

    setup_s, setup_digests = [], []

    def set_up(target: str) -> None:
        nonlocal attempted
        t0 = time.perf_counter()
        done, errs = workloads.set_up(w, args.seed, target)
        setup_s.append(time.perf_counter() - t0)
        attempted += done
        failures.extend(errs)
        if not errs:
            setup_digests.append(_digest(workloads.tree_digest(target)))

    # setup_s is the median of several set-ups; cheap ones repeat until they
    # fill SETUP_SECONDS, so a few milliseconds of noise cannot move it
    setup_dir = os.path.join(work, "setup")
    set_up(setup_dir)
    again = os.path.join(work, "setup-again")
    while not args.trace and not failures and (len(setup_s) < SETUPS
                                               or sum(setup_s) < SETUP_SECONDS):
        set_up(again)
        shutil.rmtree(again, ignore_errors=True)
    if failures:
        return attempted, failures, {}, record
    if len(set(setup_digests)) != 1:
        failures.append("repeated set-ups wrote different files")
    record["setup_s"] = setup_s

    passes, timed = [], []

    def one_pass(traced: bool) -> dict:
        nonlocal attempted
        out_dir = os.path.join(work, f"pass{len(passes)}")
        try:
            p = worker.run_pass(name=args.workload, seed=args.seed, setup_dir=setup_dir,
                                out_dir=out_dir, traced=traced)
        except (OSError, RuntimeError, ValueError) as exc:  # a worker that died counts as a failed pass
            p = {"attempted": 1, "failures": [f"worker failed: {exc!r}"]}
        shutil.rmtree(out_dir, ignore_errors=True)
        passes.append(p)
        attempted += p["attempted"]
        failures.extend(p["failures"])
        return p

    # The first pass after set-up or idle time is reliably slower (page
    # cache, lazy imports, CPU clocks), so it is checked but not timed.
    # Passes stop once another one would overrun the measuring time.
    one_pass(traced=False)
    start = time.perf_counter()
    while not failures and (len(timed) < MIN_PASSES or time.perf_counter() - start
                            + statistics.median(p["wall_s"] for p in timed) <= args.seconds):
        timed.append(one_pass(traced=bool(args.trace) and len(timed) % 2 == 0))
    if failures:
        return attempted, failures, {}, record

    if len({_digest(p["outputs"]) for p in passes}) != 1:
        failures.append("passes wrote different outputs"
                        + (" traced and untraced" if args.trace else ""))
    if len({json.dumps(p["quality"], sort_keys=True) for p in passes}) != 1:
        failures.append("DER or final loss differs between passes")
    plain = [p for p in timed if not p["traced"]]
    # passes[0] is the untimed warm-up
    record["passes"] = [{k: v for k, v in p.items() if k != "trace"} for p in passes]
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        return attempted, failures, metrics, record

    traced = [p for p in timed if p["traced"]]
    trace = traced[0]["trace"]
    record["spans"] = trace["spans"]
    closure = workloads.stage_closure(trace)
    record["stage_closure"] = closure
    for name, gap in closure.items():
        if gap > 0.01:
            failures.append(f"{name}: layer self times miss the stage wall by {gap:.2%}")
    metrics = workloads.layer_metrics(trace)
    for stage, key in STAGE_METRIC.items():
        metrics[key] = (statistics.median(p["stage_s"][stage] for p in plain)
                        if stage in w.timed else 0.0)
    for key in QUALITY:
        metrics[key] = plain[0]["quality"].get(key, 0.0)
    metrics["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                      / statistics.median(p["wall_s"] for p in plain) - 1.0)
    metrics["ops_failed_frac"] = len(failures) / attempted
    return attempted, failures, metrics, record


def _units(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diarkit", "cli.py")):
        print(f"error: no diarkit sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # one process drives the pipeline and OpenBLAS may use every usable
    # core; set before numpy is first imported, here or in the worker
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    sys.path[:0] = [ROOT, SRC]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    units = _units(bool(args.trace))
    env = _environment(args)
    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    # Passes run in one worker process that never sets up, so its peak RSS
    # is that of the timed section; leaving the block waits for it to end.
    # SIGTERM unwinds through the block too, so the worker never outlives us.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        with Worker() as worker:
            attempted, failures, metrics, record = _run(args, work, worker)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failures:
        for f in failures:
            print(f"check failed: {f}", file=sys.stderr)
        metrics = {}
    elif set(metrics) != set(units):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree: "
                           f"{sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, "failures": failures, **record},
                  fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
