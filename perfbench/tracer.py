"""Outside-in tracer: per-layer spans around gradedk's module boundaries.

The tracer changes nothing under ``src/``.  It rebinds each boundary
function in every gradedk module that holds a reference to it (several
modules import by name, e.g. ``decompose`` imports ``split_projective``
and ``filtration`` and ``cli`` import the ``swan`` functors), wraps
methods on their defining class, and restores every binding on exit.

Spans carry a name, start, end and parent id.  They are kept in flat
arrays while the traced code runs and are turned into metrics (and
optionally a JSON file) afterwards.  A span's self time is its duration
minus the time its child spans cover.
"""

import functools
import json
import sys
import time
from array import array

# (metric prefix, defining module, attribute).  The attribute is either a
# module-level function or ``Class.method``.
BOUNDARIES = [
    ("kernel.solve", "gradedk._kernel", "solve"),
    ("kernel.rref", "gradedk._kernel", "rref"),
    ("kernel.rank", "gradedk._kernel", "rank"),
    ("kernel.nullspace", "gradedk._kernel", "nullspace"),
    ("kernel.mat_mul", "gradedk._kernel", "mat_mul"),
    ("algebra.pair_tensor", "gradedk.algebra", "GradedAlgebra.pair_tensor"),
    ("algebra.component_basis", "gradedk.algebra", "GradedAlgebra.component_basis"),
    ("algebra.mul_coords", "gradedk.algebra", "GradedAlgebra.mul_coords"),
    ("presentations.space", "gradedk.gmod.presentations", "ProjectivePresentation.space"),
    ("presentations.express", "gradedk.gmod.presentations", "ComponentSpace.express"),
    ("presentations.component_matrix", "gradedk.gmod.presentations", "GradedMap.component_matrix"),
    ("presentations.validate", "gradedk.gmod.presentations", "ProjectivePresentation._validate"),
    ("endos.hom_basis", "gradedk.gmod.endos", "hom_basis"),
    ("endos.end_table", "gradedk.gmod.endos", "EndAlgebra.__init__"),
    ("endos.coords_of", "gradedk.gmod.endos", "EndAlgebra.coords_of"),
    ("endos.mul_vec", "gradedk.gmod.endos", "FDAlgebra.mul_vec"),
    ("endos.radical", "gradedk.gmod.endos", "radical_basis"),
    ("endos.centre", "gradedk.gmod.endos", "_split_commutative"),
    ("endos.factor", "gradedk.gmod.endos", "factor_irreducible"),
    ("endos.block_modp", "gradedk.gmod.endos", "_split_block_modp"),
    ("endos.block_char0", "gradedk.gmod.endos", "_split_block_char0"),
    ("endos.reconstruct", "gradedk.gmod.endos", "_reconstruct_partition"),
    ("endos.lift", "gradedk.gmod.endos", "primitive_idempotents"),
    ("endos.split_projective", "gradedk.gmod.endos", "split_projective"),
    ("decompose.summand_classes", "gradedk.gmod.decompose", "summand_classes"),
    ("decompose.match", "gradedk.gmod.decompose", "_FiniteRegistry.match"),
    ("decompose.indec_iso", "gradedk.gmod.decompose", "indec_iso"),
    ("swan.functor_T", "gradedk.gmod.swan", "functor_T"),
    ("swan.functor_S", "gradedk.gmod.swan", "functor_S"),
    ("swan.nu", "gradedk.gmod.swan", "nu"),
    ("swan.section", "gradedk.gmod.swan", "section"),
    ("swan.psi", "gradedk.gmod.swan", "psi"),
    ("filtration.layers", "gradedk.filtration", "layers"),
    ("filtration.theta", "gradedk.filtration", "theta"),
    ("filtration.psi_q", "gradedk.filtration", "psi_q"),
    ("filtration.section_independence", "gradedk.filtration", "verify_section_independence"),
    ("ktheory.k0", "gradedk.ktheory", "k0"),
    ("ktheory.class_map", "gradedk.ktheory", "K0Result.class_map"),
    ("ktheory.checks", "gradedk.ktheory", "dade_check"),
    ("ktheory.checks", "gradedk.ktheory", "quillen_case"),
    ("ktheory.checks", "gradedk.ktheory", "theorem1_check"),
    ("ktheory.checks", "gradedk.ktheory", "corollary_check"),
    ("ktheory.checks", "gradedk.ktheory", "lemma_check"),
    ("cli.parse", "gradedk.dsl", "parse"),
    ("cli.command", "gradedk.cli", "Session.run_command"),
    ("intlat.hnf", "gradedk.intlat", "hnf"),
]

# Boundaries that call no other boundary report no ``.total_s``: their
# total equals their self time.
LEAVES = {
    "kernel.solve", "kernel.rref", "kernel.rank", "kernel.nullspace",
    "kernel.mat_mul", "endos.mul_vec", "endos.factor", "cli.parse", "intlat.hnf",
}

# Boundaries whose ``.hit_ratio`` is reported: the share of calls that
# found their answer already there.  ``before(args)`` runs ahead of the
# call; ``hit(state, result)`` decides afterwards.
HIT_RATIOS = {
    "algebra.pair_tensor": (lambda a: (a[1], a[2]) in a[0]._mul_cache, lambda s, r: s),
    "algebra.component_basis": (lambda a: a[1] in a[0]._basis_cache, lambda s, r: s),
    "presentations.space": (lambda a: a[1] in a[0]._spaces, lambda s, r: s),
    # a match is a hit when it returns a class that existed before the call
    "decompose.match": (lambda a: len(a[0].classes), lambda n, r: r[0] < n),
}

EXTRA_METRICS = [
    ("kernel.cells", "count"),
    ("endos.end_dim_sum", "count"),
    ("endos.block_size_max", "count"),
    ("tracer.overhead", "ratio"),
]


def _cells(args):
    """Sum of rows x cols over the matrix arguments of a kernel call."""
    n = 0
    for m in args:
        if isinstance(m, list):
            n += len(m) * (len(m[0]) if m else 0)
    return n


def boundary_names():
    seen = []
    for name, _mod, _attr in BOUNDARIES:
        if name not in seen:
            seen.append(name)
    return seen


def metric_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in boundary_names():
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
        if name not in LEAVES:
            units[name + ".total_s"] = "s"
        if name in HIT_RATIOS:
            units[name + ".hit_ratio"] = "ratio"
    units.update(EXTRA_METRICS)
    return units


def gradedk_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "gradedk" or n.startswith("gradedk."))]


class Tracer:
    """Wraps every boundary for the duration of a ``with`` block."""

    def __init__(self):
        self.names = boundary_names() + ["job"]
        self._index = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_outer = array("b")  # no ancestor span of the same name
        self.job_labels = {}  # span id of a job span -> job label
        self.hits = {n: 0 for n in HIT_RATIOS}
        self.cells = 0
        self.end_dim_sum = 0
        self.block_size_max = 0
        self._stack = []
        self._active = [0] * len(self.names)
        self._restore = []

    # -- recording -----------------------------------------------------------
    def _open(self, idx):
        sid = len(self.span_start)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_outer.append(self._active[idx] == 0)
        self._active[idx] += 1
        self._stack.append(sid)
        self.span_end.append(0)
        self.span_start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid, idx):
        self.span_end[sid] = time.perf_counter_ns()
        self._stack.pop()
        self._active[idx] -= 1

    def job(self, label, fn):
        """Run one job under a root span; its id groups the job's spans."""
        idx = self._index["job"]
        sid = self._open(idx)
        self.job_labels[sid] = label
        try:
            return fn()
        finally:
            self._close(sid, idx)

    def _wrap(self, name, fn):
        idx = self._index[name]
        open_, close = self._open, self._close
        hit_ratio = HIT_RATIOS.get(name)
        tracer = self

        if name.startswith("kernel."):
            @functools.wraps(fn)
            def traced(*args, **kw):
                tracer.cells += _cells(args)
                sid = open_(idx)
                try:
                    return fn(*args, **kw)
                finally:
                    close(sid, idx)
        elif hit_ratio is not None:
            before, hit = hit_ratio

            @functools.wraps(fn)
            def traced(*args, **kw):
                state = before(args)
                sid = open_(idx)
                try:
                    result = fn(*args, **kw)
                finally:
                    close(sid, idx)
                tracer.hits[name] += bool(hit(state, result))
                return result
        elif name == "endos.end_table":
            @functools.wraps(fn)
            def traced(self_, *args, **kw):
                sid = open_(idx)
                try:
                    fn(self_, *args, **kw)
                finally:
                    close(sid, idx)
                tracer.end_dim_sum += self_.dim
        else:
            @functools.wraps(fn)
            def traced(*args, **kw):
                sid = open_(idx)
                try:
                    return fn(*args, **kw)
                finally:
                    close(sid, idx)
        return traced

    def _wrap_block_size(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kw):
            r = fn(*args, **kw)
            self.block_size_max = max(self.block_size_max, r)
            return r
        return probed

    # -- patching ------------------------------------------------------------
    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr, make):
        orig = getattr(sys.modules[module], attr)
        wrapper = make(orig)
        hits = 0
        for mod in gradedk_modules():
            # a package's own submodules are its implementation: the
            # kernel's backends call rref internally, which is not a
            # boundary crossing
            if mod.__name__.startswith(module + "."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._rebind(mod, key, wrapper)
                    hits += 1
        if not hits:
            raise RuntimeError(f"boundary {module}.{attr} not found")

    def _patch_method(self, module, attr, make):
        cls_name, meth = attr.split(".")
        base = getattr(sys.modules[module], cls_name)
        owners = [base]
        for mod in gradedk_modules():
            for val in vars(mod).values():
                if (isinstance(val, type) and val is not base and issubclass(val, base)
                        and meth in val.__dict__ and val not in owners):
                    owners.append(val)
        for owner in owners:
            self._rebind(owner, meth, make(owner.__dict__[meth]))

    def __enter__(self):
        try:
            for name, module, attr in BOUNDARIES:
                make = functools.partial(self._wrap, name)
                if "." in attr:
                    self._patch_method(module, attr, make)
                else:
                    self._patch_function(module, attr, make)
            self._patch_function("gradedk.gmod.endos", "_block_matrix_size",
                                 self._wrap_block_size)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------
    def metrics(self):
        """Per-layer metrics (without ``tracer.overhead``)."""
        n_names = len(self.names)
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * n_names
        self_ns = [0] * n_names
        total_ns = [0] * n_names
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_ns[k] += dur[i] - child[i]
            if self.span_outer[i]:
                total_ns[k] += dur[i]
        out = {}
        for name in boundary_names():
            k = self._index[name]
            out[name + ".calls"] = calls[k]
            out[name + ".self_s"] = self_ns[k] / 1e9
            if name not in LEAVES:
                out[name + ".total_s"] = total_ns[k] / 1e9
            if name in HIT_RATIOS:
                out[name + ".hit_ratio"] = self.hits[name] / calls[k] if calls[k] else 0.0
        out["kernel.cells"] = self.cells
        out["endos.end_dim_sum"] = self.end_dim_sum
        out["endos.block_size_max"] = self.block_size_max
        return out

    def write_spans(self, path, meta):
        """Write every span (columnar) plus the run metadata as JSON."""
        doc = {
            "meta": meta,
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "span_parent": self.span_parent.tolist(),
            "span_start_ns": self.span_start.tolist(),
            "span_end_ns": self.span_end.tolist(),
            "jobs": {str(k): v for k, v in self.job_labels.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
