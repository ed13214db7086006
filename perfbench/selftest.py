"""Self-tests for the benchmark, at a tiny size (a few seconds).

    python3 perfbench/selftest.py

Each ``test_*`` function also runs under pytest
(``python3 -m pytest perfbench/selftest.py``).
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_gradedk()

import tracer  # noqa: E402
import workloads  # noqa: E402
from gradedk import gmod  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bindings_snapshot():
    """Identity of every function-like attribute of every gradedk module
    and class, used to check that a tracer leaves nothing patched."""
    snap = {}
    for mod in tracer.gradedk_modules():
        for key, val in vars(mod).items():
            snap[(mod.__name__, key)] = id(val)
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for mkey, mval in vars(val).items():
                    snap[(mod.__name__, key + "." + mkey)] = id(mval)
    return snap


def _cheap_groupalg(rank_offset=0):
    """Two sub-second jobs of k0_groupalg."""
    def build(seed):
        jobs = workloads.build_k0_groupalg(seed, rank_offset)
        return [j for j in jobs if j[0] in (
            "k0(forget(groupalg(F2, Z2 x Z6)))", "k0(forget(groupalg(F2, Z12)))")]
    return build


def _printed_metrics(metrics, units, attempted, failed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(metrics, {}, units, attempted, failed)
    return json.loads(out.getvalue().splitlines()[-1])


def test_workload_names_match():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == run.WORKLOAD_NAMES == list(workloads.WORKLOADS)


def test_printed_metric_names_match():
    build = _cheap_groupalg()
    metrics, _info, attempted, failed = run.measure(build, 1, 0, [0.5])
    printed = _printed_metrics(metrics, run.END_TO_END_UNITS, attempted, failed)
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == want
    assert printed["correct"] and printed["failed"] == 0 and printed["attempted"] == 2
    assert all(v["value"] > 0 for v in printed["metrics"].values())

    metrics, _info, attempted, failed = run.measure_traced(build, 1)
    printed = _printed_metrics(metrics, tracer.metric_units(), attempted, failed)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == want
    assert printed["metrics"]["ktheory.k0.calls"]["value"] == 2


def test_wrong_expected_rank_fails():
    _metrics, info, attempted, failed = run.measure(_cheap_groupalg(rank_offset=1), 1, 0, [0.5])
    assert attempted == 2 and failed == 2
    assert info["failed_frac"] == 1.0


def test_tracer_restores_every_binding():
    mods = sys.modules
    # (gradedk.gmod.decompose names the function; the module is in sys.modules)
    decompose, endos = mods["gradedk.gmod.decompose"], mods["gradedk.gmod.endos"]
    swan_T = mods["gradedk.gmod.swan"].functor_T

    before = bindings_snapshot()
    original = endos.split_projective
    try:
        with tracer.Tracer():
            # every module that imported a boundary by name sees the wrapper
            assert decompose.split_projective is not original
            assert decompose.split_projective is endos.split_projective
            wrapped_T = mods["gradedk.gmod.swan"].functor_T
            assert wrapped_T is not swan_T
            assert mods["gradedk.cli"].functor_T is wrapped_T
            assert mods["gradedk.filtration"].functor_T is wrapped_T
            assert before != bindings_snapshot()
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    assert bindings_snapshot() == before
    assert decompose.split_projective is original
    assert mods["gradedk.cli"].functor_T is swan_T


def test_self_times_add_up():
    """Self times of all spans sum to the root (job) spans' durations."""
    jobs = _cheap_groupalg()(1)
    with tracer.Tracer() as t:
        run.run_pass(jobs, [], run.ScaledClock(), t)
    m = t.metrics()
    roots = sum(t.span_end[i] - t.span_start[i]
                for i in range(len(t.span_start)) if t.span_parent[i] < 0)
    job = t.names.index("job")
    job_self = sum(
        (t.span_end[i] - t.span_start[i])
        - sum(t.span_end[c] - t.span_start[c]
              for c in range(len(t.span_start)) if t.span_parent[c] == i)
        for i in range(len(t.span_start)) if t.span_name[i] == job)
    selfs = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert abs(selfs + job_self / 1e9 - roots / 1e9) < 1e-6


def test_group_algebra_oracle():
    # cyclic subgroups: tau(12) = 6; Z2 x Z6 has 8
    assert workloads.group_algebra_k0_rank((12,), 0) == 6
    assert workloads.group_algebra_k0_rank((2, 6), 0) == 8
    # F2[Z12]: the 2'-part is Z3, and x^3 - 1 = (x - 1)(x^2 + x + 1) over F2
    assert workloads.group_algebra_k0_rank((12,), 2) == 2
    # F7[Z12]: 7 = 1 mod 6 and 7 = -1 mod 4, so 9 irreducible factors
    assert workloads.group_algebra_k0_rank((12,), 7) == 9
    # F2[Z16] is local
    assert workloads.group_algebra_k0_rank((16,), 2) == 1


def test_summand_counts_are_stratified():
    seeds = workloads.module_seeds(7)
    assert [(a, r) for a, r, _s in seeds] == [
        (a, r) for a, counts in enumerate(workloads.SUMMAND_COUNTS) for r in counts]
    assert seeds == workloads.module_seeds(7)
    # the replayed count is the module's rank: over Q[x] a free summand has
    # dimension 1 in every degree above its shift
    name, A, shifts = workloads.corpus()[2]
    assert name == "Q[x]"
    for _a, r, s in [x for x in seeds if x[0] == 2]:
        P = gmod.random_presentation(A, shifts, random.Random(s))
        assert P.dim(A.deg([50])) == r


def test_demo_chunks():
    text = workloads.DEMO_SCRIPT.read_text(encoding="utf-8")
    chunks = workloads.demo_chunks(text)
    assert len(chunks) == 9
    assert chunks[0] == "A = matrix(Q, [0,1,2,2,3])\nk0(A)\n"


def main():
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_") and callable(f)]
    for name, fn in tests:
        fn()
        print(f"ok {name}", flush=True)
    print(f"{len(tests)} self-tests passed")


if __name__ == "__main__":
    main()
