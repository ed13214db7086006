"""The benchmark tracer's boundaries must name functions that exist.

``perfbench/tracer.py`` wraps gradedk functions by module and attribute
name, so renaming or deleting one breaks ``perfbench/run.py --trace 1``
without failing any other test.  The tracer module is loaded from its
file and only read here: nothing is patched.  Its hit-ratio probes read
cache attributes (``_spaces``, ``_mul_cache``, ``_basis_cache``, the
registry's ``classes``), so each probe is also run on real objects.
"""

import importlib
import importlib.util
import random
from pathlib import Path

from gradedk import algebra as alg
from gradedk.fields import QQ
from gradedk.gmod import regular_module
from gradedk.gmod.endos import split_projective

# the package exports the function decompose under the submodule's name
dec = importlib.import_module("gradedk.gmod.decompose")

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_boundaries():
    return [(module_name, attr) for _metric, module_name, attr in _tracer_module().BOUNDARIES]


def _resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_traced_function_exists():
    # _block_matrix_size feeds the tracer's endos.block_size_max
    names = _tracer_boundaries() + [("gradedk.gmod.endos", "_block_matrix_size")]
    assert len(names) > 1
    missing = [f"{m}.{a}" for m, a in names if not _resolves(m, a)]
    assert missing == []


def _hit_ratio_calls():
    """For each boundary with a hit ratio: the traced call, as a function
    of no arguments, and the arguments the tracer's probes receive."""
    A = alg.forget_grading(alg.matrix_algebra(QQ, [0, 1]))
    z = A.group.zero
    P = regular_module(A)
    X, _blk = split_projective(P, random.Random(0))[0]
    reg = dec._registry(A)
    info = reg.classes[0]  # X's class: forget(M_2) has one
    return {
        "algebra.pair_tensor": (lambda: A.pair_tensor(z, z), (A, z, z)),
        "algebra.component_basis": (lambda: A.component_basis(z), (A, z)),
        "presentations.space": (lambda: P.space(z), (P, z)),
        "decompose.match": (
            lambda: reg.match(X, set(), info.weights, info.division_dim),
            (reg, X, set(), info.weights, info.division_dim),
        ),
    }


def test_hit_ratio_probes_read_live_attributes():
    probes = _tracer_module().HIT_RATIOS
    calls = _hit_ratio_calls()
    assert set(probes) == set(calls)
    for name, (before, hit) in probes.items():
        call, args = calls[name]
        state = before(args)
        hit(state, call())
        # the second call finds its answer already there
        assert hit(before(args), call()) is True, name
