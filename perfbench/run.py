"""imdner benchmark: seeded synthetic workloads, timed from outside the package.

Run from the repository root; the package is imported from ./src, never from
an installed copy:

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

Workloads: train-paper, tag-notes, score-corpus, breakdown-corpus, kg-corpus
(BENCHMARK.json says why). Each run generates its inputs from --seed, runs
ops in a closed loop for --seconds and checks every op's output. It sets up
several times before the ops and again after them and reports the median of
all as setup_s (and the median of each half on a comment line).
Human-readable lines come first (the environment block and every metric with
its unit); the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics with tracing off. --trace 1 runs
every op twice on the same input, once untraced and once with spans around
every imdner layer, and reports the per-layer metrics: self time, counts,
ratios, the share of op wall time no span covers, and the tracing overhead
(traced over untraced time per token, minus one). The spans are written as
JSON lines under .perfbench/. A failed check or op makes the exit code 1.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# One BLAS thread, whatever the environment says: the matrices here are too
# small to gain from threads, and a fixed count keeps runs comparable. Set
# before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if not (SRC / "imdner" / "__init__.py").is_file():
    sys.stderr.write(f"perfbench: no imdner sources at {SRC}; run from a checkout of the repository\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import imdner  # noqa: E402

if Path(imdner.__file__).resolve().parent != (SRC / "imdner").resolve():
    sys.stderr.write(f"perfbench: imported imdner from {imdner.__file__}, not from {SRC}\n")
    sys.exit(2)

import inputs  # noqa: E402
from tracing import SETUP_OP, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SETUP_MIN_REPEATS = 2  # before the ops and again after them; setup_s is the median of all
PREPARED = "workload.pickle"


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": _cpu_count(),
        "cpu": cpu,
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD's commit read from .git directly; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _timed_op(wl, ready, i: int, tracer: Tracer | None):
    """Run op i (traced if a tracer is given), then check its output.
    Returns (wall seconds, result or None if the op raised or failed its check)."""
    if tracer is not None:
        tracer.begin_op(i)
        tracer.enabled = True
    t0 = perf_counter()
    try:
        res = wl.op(ready, i)
    except Exception:  # counted as a failed op; the loop goes on
        res = None
        traceback.print_exc(file=sys.stderr)
    wall = perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    if res is not None:
        try:
            wl.check(ready, res)
        except CheckFailed as e:
            sys.stderr.write(f"perfbench: {wl.name} op {i} failed its check: {e}\n")
            res = None
        except Exception:  # a check that calls imdner (load, predict) and raises
            sys.stderr.write(f"perfbench: {wl.name} op {i} raised in its check\n")
            traceback.print_exc(file=sys.stderr)
            res = None
        else:
            res.output = None  # keeping outputs would grow peak memory with the op count
    return wall, res


def _measure(wl, ready, seconds: float, tracer: Tracer | None):
    """Closed loop: issue ops until `seconds` have passed. With a tracer, every
    op runs twice on the same input, untraced and traced, alternating which
    goes first. Returns the untraced and traced (walls, results) and the
    number of failed ops."""
    untraced, traced = ([], []), ([], [])
    failed = 0
    i = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        sides = [(None, untraced)] + ([(tracer, traced)] if tracer is not None else [])
        if i % 2:
            sides.reverse()
        for side_tracer, (walls, results) in sides:
            wall, res = _timed_op(wl, ready, i, side_tracer)
            walls.append(wall)
            if res is None:
                failed += 1
            else:
                results.append(res)
        i += 1
    return untraced, traced, failed


def _set_up(wl, times: list[float], min_seconds: float, tracer: Tracer | None):
    """Set up SETUP_MIN_REPEATS times or for `min_seconds`, whichever is more,
    appending each time to `times`. Every repeat starts from the same small
    heap, as a fresh process would. Returns the last set-up's ready inputs."""
    if tracer is not None:
        tracer.begin_op(SETUP_OP)
    ready = None
    spent, n = 0.0, 0
    while n < SETUP_MIN_REPEATS or spent < min_seconds:
        ready = None
        gc.collect()
        if tracer is not None:
            tracer.enabled = True
        t0 = perf_counter()
        ready = wl.setup()
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        times.append(dt)
        spent, n = spent + dt, n + 1
    return ready


def _prepare(name: str, seed: int, size: str, workdir: Path):
    """Generate the inputs in a child process, so that peak_rss_mb is the
    workload's own and not the generator's (tag-notes trains its checkpoint
    there). The child leaves the prepared workload pickled in `workdir`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", "0", "--size", size, "--prepare-into", str(workdir)]
    subprocess.run(cmd, check=True)
    with open(workdir / PREPARED, "rb") as f:
        return pickle.load(f)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = Tracer() if trace else None
    try:
        wl = _prepare(name, seed, size, workdir)
        if tracer is not None:
            tracer.install()
        # Half the set-up repeats run before the ops and half after them, so
        # that the median samples the host over the whole run.
        setup_before: list[float] = []
        setup_after: list[float] = []
        ready = _set_up(wl, setup_before, inputs.SIZES[size].setup_seconds / 2, tracer)
        (walls, results), (t_walls, t_results), failed = _measure(wl, ready, seconds, tracer)
        ready = None
        ready = _set_up(wl, setup_after, inputs.SIZES[size].setup_seconds / 2, tracer)
        setup_times = setup_before + setup_after
        attempted = len(walls) + len(t_walls)
        if tracer is not None:
            per_tok = sum(walls) / max(sum(r.units for r in results), 1)
            t_per_tok = sum(t_walls) / max(sum(r.units for r in t_results), 1)
            layer = tracer.layer_metrics(sum(t_walls), t_per_tok / per_tok - 1.0)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    print(f"# {name} seed={seed} seconds={seconds} trace={int(trace)} ops={attempted} "
          f"setup_repeats={len(setup_times)}" + (" (end-to-end figures from the untraced ops)" if trace else ""))
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# setup median before the ops {statistics.median(setup_before):.6f} s (n={len(setup_before)}), "
          f"after them {statistics.median(setup_after):.6f} s (n={len(setup_after)})")
    wall = sum(walls)
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_p95_ms": (float(np.percentile(walls, 95)) * 1e3, "ms"),
    }
    # Printed, not gated. On a shared host whose CPUs switch between two
    # speeds (about 1.8x apart) for seconds to minutes at a time, throughput
    # and the median op follow the share of the run spent at the slow speed,
    # which differs from run to run; the 95th percentile falls among the slow
    # ops in nearly every run, so it moves with the code and little with the host.
    extra = {
        "tok_per_s": (sum(r.units for r in results) / wall, "tok/s"),
        "op_p50_ms": (float(np.percentile(walls, 50)) * 1e3, "ms"),
        "fail_frac": (failed / attempted, "frac"),
    }
    if results:
        extra.update(wl.report(ready, results, wall, {**e2e, **extra}))
    for metric, (value, unit) in {**e2e, **extra}.items():
        print(f"{metric}\t{value}\t{unit}")
    if tracer is not None:
        spans_path = OUT / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        print(f"# spans written to {spans_path.relative_to(ROOT)}; missing layers: {tracer.missing or 'none'}")
        for metric, (value, unit) in layer.items():
            print(f"{metric}\t{value}\t{unit}")
        metrics = layer
    else:
        metrics = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process (so peak memory is per workload),
    then one summary line keyed `<workload>.<metric>`."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(inputs.SIZES), default="paper",
                   help="input and model sizes; 'toy' is for the harness self-check")
    p.add_argument("--prepare-into", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.prepare_into:
        wl = WORKLOADS[args.workload]()
        wl.prepare(inputs.SIZES[args.size], args.seed, args.prepare_into)
        with open(args.prepare_into / PREPARED, "wb") as f:
            pickle.dump(wl, f)
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
