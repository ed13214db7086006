"""gradedk benchmark: end-to-end job times and per-layer traced numbers.

    python3 perfbench/run.py --workload k0_matrix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports gradedk from its
``src/`` directory.  One process, one caller, no threads: each job (one
top-level gradedk call) starts when the previous one has finished.  A
pass builds the workload's inputs afresh and runs its fixed job list;
the run repeats passes while another one fits in ``--seconds``.

Every reported time is a wall time scaled to a reference machine speed
(``clock.py``): the host's speed drifts too much for raw times to
compare one run with the next.  Raw times are printed as ``# `` lines.

``--trace 0`` reports the end-to-end metrics: the job list's time with
each job at its median over the passes (``wall_s``), the median job
time (``job_p50_s``), set-up time and peak memory.  ``--trace 1`` runs
one untraced and one traced pass and reports the per-layer metrics of
the traced one, plus the tracer's overhead; the spans go to
``.perfbench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from clock import ScaledClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# What a CLI user's process imports before the first job.
IMPORTS = "import sympy, gradedk, gradedk.cli"
IMPORT_SAMPLES = 9  # one in this process, the rest in fresh interpreters

WORKLOAD_NAMES = ["k0_matrix", "k0_groupalg", "swan_filtration", "cli_demo"]

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class CheckoutError(RuntimeError):
    pass


def import_gradedk():
    """Put the checkout's ``src`` first on the path and import gradedk and
    sympy (endos imports sympy lazily on the first factorization; paying
    for it here keeps it out of whichever job factors first).  Returns
    the import time."""
    if not (SRC / "gradedk" / "__init__.py").is_file():
        raise CheckoutError(f"no gradedk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    exec(IMPORTS, {})
    elapsed = time.perf_counter() - t0
    import gradedk

    if Path(gradedk.__file__).resolve().parent != SRC / "gradedk":
        raise CheckoutError(f"gradedk was imported from {gradedk.__file__}, not {SRC}")
    return elapsed


def fresh_import_time():
    """Import time measured inside a fresh interpreter."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t0 = time.perf_counter()\n"
        f"{IMPORTS}\n"
        "print(time.perf_counter() - t0)\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], cwd=ROOT, capture_output=True,
        text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def git_revision():
    """The checkout's commit, read from .git without running git."""
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


def run_metadata(workload, seed):
    import gradedk
    import sympy

    return {
        "workload": workload,
        "seed": seed,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "kernel_backend": gradedk.KERNEL_BACKEND,
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
    }


def fresh_inputs(build, seed):
    """One pass's inputs.  sympy's cache is emptied too: a CLI process
    starts with it empty, and a pass that found it filled by the previous
    pass would skip factoring work that a CLI user pays for."""
    from sympy.core.cache import clear_cache

    clear_cache()
    return build(seed)


def run_pass(jobs, failures, clock, tracer=None):
    """Run one job list in order; returns each job's scaled wall time."""
    times = []
    for label, fn in jobs:
        t0 = time.perf_counter()
        try:
            ok = tracer.job(label, fn) if tracer else fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        clock.record(times, time.perf_counter() - t0)
        if not ok:
            failures.append(label)
    clock.flush()
    return times


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sample."""
    s = sorted(values)
    return s[max(0, -(-len(s) * q // 100) - 1)]


def measure(build, seed, seconds, import_times, clock=None):
    """Untraced run: passes until the next one would overrun ``seconds``.
    ``import_times`` are scaled already."""
    clock = clock or ScaledClock()
    start = time.perf_counter()
    builds, walls, raw_walls, elapsed, pass_times, failures = [], [], [], [], [], []
    while True:
        t0 = time.perf_counter()
        jobs = fresh_inputs(build, seed)
        clock.record(builds, time.perf_counter() - t0)
        raw0 = clock.raw_total
        times = run_pass(jobs, failures, clock)
        raw_walls.append(clock.raw_total - raw0)
        walls.append(sum(times))
        pass_times.append(times)
        elapsed.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(elapsed) > seconds:
            break
    # each job's time is its median over the passes
    job_times = [statistics.median(ts) for ts in zip(*pass_times)]
    attempted = len(job_times) * len(walls)
    metrics = {
        "wall_s": sum(job_times),
        "job_p50_s": statistics.median(job_times),
        "setup_s": statistics.median(import_times) + statistics.median(builds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "pass_walls_s": [round(w, 4) for w in walls],
        "raw_pass_walls_s": [round(w, 4) for w in raw_walls],
        "import_s": [round(t, 4) for t in import_times],
        "build_s": [round(t, 4) for t in builds],
        "jobs_per_pass": len(job_times),
        "failed_frac": len(failures) / attempted,
        "failures": sorted(set(failures)),
    }
    # the 90th percentile needs ten jobs beyond it
    if len(job_times) >= 100:
        info["job_p90_s"] = percentile(job_times, 90)
    return metrics, info, attempted, len(failures)


def measure_traced(build, seed, meta=None, spans_path=None):
    """One untraced pass, then the same job list traced."""
    from tracer import Tracer

    clock = ScaledClock()
    failures = []
    untraced = run_pass(fresh_inputs(build, seed), failures, clock)
    jobs = fresh_inputs(build, seed)
    with Tracer() as tracer:
        traced = run_pass(jobs, failures, clock, tracer)
    metrics = tracer.metrics()
    metrics["tracer.overhead"] = sum(traced) / sum(untraced)
    if spans_path is not None:
        tracer.write_spans(spans_path, meta)
    info = {
        "untraced_wall_s": sum(untraced),
        "traced_wall_s": sum(traced),
        "failed_frac": len(failures) / (2 * len(untraced)),
        "failures": sorted(set(failures)),
        "spans": len(tracer.span_start),
    }
    return metrics, info, 2 * len(untraced), len(failures)


def report(metrics, info, units, attempted, failed):
    """Print every metric by name with its unit, then the result line."""
    for name, value in metrics.items():
        print(f"{name:42s} {value:14.6g} {units[name]}")
    for name, value in info.items():
        print(f"# {name} {value}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def run_one(args):
    clock = ScaledClock()
    import_times = []
    try:
        clock.record(import_times, import_gradedk())
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    build = workloads.WORKLOADS[args.workload]
    meta = run_metadata(args.workload, args.seed)
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, info, attempted, failed = measure_traced(build, args.seed, meta, spans)
        units = tracer.metric_units()
    else:
        for _ in range(IMPORT_SAMPLES - 1):
            clock.record(import_times, fresh_import_time())
        clock.flush()
        metrics, info, attempted, failed = measure(
            build, args.seed, args.seconds, import_times, clock)
        units = END_TO_END_UNITS
    report(metrics, info, units, attempted, failed)
    return 0


def run_all(args):
    """Every workload, each in its own process, in turn."""
    results = {}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
