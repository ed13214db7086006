"""The benchmark tracer's boundaries must name functions that exist.

``perfbench/tracer.py`` wraps gradedk functions by module and attribute
name, so renaming or deleting one breaks ``perfbench/run.py --trace 1``
without failing any other test.  The tracer module is loaded from its
file and only read here: nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_boundaries():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for _metric, module_name, attr in module.BOUNDARIES]


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
