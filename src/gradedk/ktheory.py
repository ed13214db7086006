"""Graded K0 as a shift-action module, with the theorem-level checks.

K0 of a constructor-family algebra is computed from the Krull-Schmidt
decomposition of the regular module: the indecomposable classes fall
into finitely many shift orbits, each orbit contributing Z[G/H] for its
stabilizer H.  The :class:`gradedk.grading.ShiftModule` is those orbits
as found: each with its stabilizer and one class label per coset of
H + Z^m, the free part Z^m being the Laurent part of Z[G/H].
``class_map`` turns any presentation into coordinates on that basis.

The checks all follow one pattern: compute both sides, build the
comparison map by inducing basis representatives, and verify that it
matches basis to basis with the right equivariance.  Reports carry the
explicit correspondence, not just a verdict, so failures are diagnosable.

Only K0 is computed here.  Higher K-groups are out of scope for a desk
artifact; the category-level facts that drive them (the projective class
correspondence of :mod:`gradedk.gmod.swan` and the additive filtration of
:mod:`gradedk.filtration`) are verified by their own suites instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from . import intlat
from .algebra import GradedAlgebra, is_strongly_graded
from .grading import ShiftModule, Subgroup, induce_module, shift_module_iso
from .gmod.decompose import class_info, lift_from_zero_part, summand_classes
from .gmod.presentations import ProjectivePresentation, regular_module, relabel


@dataclass
class K0Orbit:
    block: int
    representative: ProjectivePresentation
    stabilizer: Subgroup
    signature: tuple

    def to_json(self):
        idx = self.stabilizer.index()
        return {
            "class": f"P{self.block}",
            "stabilizer": self.stabilizer.to_json(),
            "stabilizer_index": idx,
        }


class K0Result:
    """K0 of a graded algebra: orbit basis plus the shift-action module."""

    def __init__(self, algebra: GradedAlgebra):
        self.algebra = algebra
        self.group = algebra.group
        reg_classes = summand_classes(regular_module(algebra))
        blocks = sorted({blk for blk, _g in reg_classes})
        orbits = []
        for blk in blocks:
            info = class_info(algebra, blk)
            orbits.append(K0Orbit(blk, info.rep, info.stabilizer, info.signature))
        orbits.sort(key=lambda o: (o.signature, o.stabilizer.rows, o.block))
        self.orbits = orbits
        self.module = self._build_module()
        # the class of the regular module itself, from the same decomposition
        self.regular_class = self._coordinates(reg_classes)

    def _build_module(self) -> ShiftModule:
        """One label per coset of H + Z^m for each orbit's stabilizer H:
        ``classes`` in coset-representative order, and each orbit's labels
        in the order a stack walk along the generators from the zero
        coset reaches them."""
        g = self.group
        gens = g.generators()
        classes: List[str] = []
        orbits = []
        for o in self.orbits:
            visible = o.stabilizer.add_degrees(gens[: g.free_rank])
            reps = visible.coset_representatives()
            many = len(reps) > 1
            label = {
                r: f"P{o.block}" + ("@" + ",".join(map(str, r.values)) if many else "")
                for r in reps
            }
            classes += label.values()
            walk, stack = {g.zero: None}, [g.zero]
            while stack:
                x = stack.pop()
                for gen in gens:
                    y = visible.reduce(x + gen)
                    if y not in walk:
                        walk[y] = None
                        stack.append(y)
            orbits.append(([label[d] for d in walk], o.stabilizer))
        return ShiftModule(g, classes, orbits)

    # -- class coordinates ---------------------------------------------------
    def class_map(self, P: ProjectivePresentation) -> Dict:
        """Coordinates of [P]: (orbit class name, coset degree) -> mult."""
        if P.algebra is not self.algebra:
            raise ValueError("presentation over a different algebra")
        return self._coordinates(summand_classes(P))

    def _coordinates(self, classes) -> Dict:
        out = {}
        block_of = {o.block: o for o in self.orbits}
        for (blk, gdeg), m in classes.items():
            if blk not in block_of:  # pragma: no cover - regular module is exhaustive
                raise RuntimeError("class outside the regular-module basis")
            key = (f"P{blk}", gdeg.values)
            out[key] = out.get(key, 0) + m
        return out

    def z_basis(self):
        """The full Z-basis [(block, coset degree)] when finite."""
        basis = []
        for o in self.orbits:
            idx = o.stabilizer.index()
            if idx is None:
                return None
            for r in o.stabilizer.coset_representatives():
                basis.append((o.block, o.stabilizer.reduce(r)))
        return basis

    def to_json(self):
        return {
            "algebra": self.algebra.describe(),
            "group": self.group.to_json(),
            "orbits": [o.to_json() for o in self.orbits],
            "module": self.module.to_json(),
        }


def k0(A: GradedAlgebra) -> K0Result:
    """Graded K0 of a constructor-family algebra, via the regular module."""
    return K0Result(A)


def _report(verdict, hypothesis_checks, lhs_basis=None, rhs_basis=None,
            correspondence=None, data=None):
    return {
        "hypothesis_checks": hypothesis_checks,
        "lhs_basis": lhs_basis or [],
        "rhs_basis": rhs_basis or [],
        "correspondence": correspondence or [],
        "verdict": verdict,
        "data": data or {},
    }


def _check(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _image(classes):
    """A class map as the sorted ``image`` list of a correspondence."""
    return [
        {"class": f"P{blk}", "coset": list(g.values), "mult": m}
        for (blk, g), m in sorted(classes.items(), key=lambda kv: (kv[0][0], kv[0][1].values))
    ]


# ---------------------------------------------------------------------------
# Dade: strongly graded algebras
# ---------------------------------------------------------------------------


def dade_check(A: GradedAlgebra) -> dict:
    """For strongly graded A, base change along A_0 -> A matches a Z-basis
    of K0(A_0) with a Z-basis of graded K0(A)."""
    hyp = []
    strongly = is_strongly_graded(A)
    hyp.append(
        _check(
            "strongly_graded",
            strongly,
            "1 lies in A_g A_{-g} for every generator degree g"
            if strongly
            else "some generator degree g has 1 not in A_g A_{-g}",
        )
    )
    if not strongly:
        return _report("hypothesis-not-met", hyp)
    A0 = A.identity_component()
    k_a0 = k0(A0)
    k_a = k0(A)
    zb = k_a.z_basis()
    if zb is None:
        hyp.append(_check("finite_graded_basis", False, "an orbit has infinite index"))
        return _report("fail", hyp, lhs_basis=[o.to_json() for o in k_a0.orbits])
    index = {(blk, g.values): i for i, (blk, g) in enumerate(zb)}
    cols = []
    correspondence = []
    for o in k_a0.orbits:
        # base change along A_0 -> A: the ungraded projective in degree zero
        X = relabel(o.representative, A, lambda d: A.group.zero)
        cm = summand_classes(X)
        col = [0] * len(zb)
        for (blk, g), m in cm.items():
            col[index[(blk, g.values)]] = m
        cols.append(col)
        correspondence.append({"source": f"Q{o.block}", "image": _image(cm)})
    square = len(cols) == len(zb)
    # a square integer matrix is unimodular exactly when its Hermite form
    # is the identity; the empty matrix is its own identity
    identity = [[int(i == j) for j in range(len(zb))] for i in range(len(zb))]
    unimodular = square and intlat.hnf(cols) == identity
    verdict = "pass" if unimodular else "fail"
    data = {
        "k0_identity_component": k_a0.to_json(),
        "k0_graded": k_a.to_json(),
        "zbasis_size": len(zb),
    }
    hyp.append(_check("basis_sizes_match", square, f"{len(cols)} vs {len(zb)}"))
    hyp.append(_check("unimodular_change_of_basis", unimodular))
    return _report(
        verdict,
        hyp,
        lhs_basis=[o.to_json() for o in k_a0.orbits],
        rhs_basis=[o.to_json() for o in k_a.orbits],
        correspondence=correspondence,
        data=data,
    )


# ---------------------------------------------------------------------------
# the leading-coordinate extension theorem and its relatives
# ---------------------------------------------------------------------------


def _orbit_correspondence(lhs: K0Result, rhs: K0Result, carry):
    """Carry each orbit representative of ``lhs`` into the algebra of
    ``rhs``, whose group has extra leading free coordinates, and match its
    class map against the orbits of ``rhs``.

    Returns (correspondence, ok, hit, unstable, first): ok says that
    every image is one class of multiplicity one, no two coincide, and
    each has the lhs stabilizer with the extra coordinates prepended;
    hit counts the graded orbits hit; unstable lists the lhs blocks whose
    stabilizer differs; first is the first carried representative with
    its class map, or None when there are no orbits.
    """
    extra_free = rhs.group.free_rank - lhs.group.free_rank
    correspondence = []
    ok = True
    hit = set()
    unstable = []
    first = None
    for o in lhs.orbits:
        X = carry(o.representative)
        cm = summand_classes(X)
        if first is None:
            first = (X, cm)
        correspondence.append({"source": f"Q{o.block}", "image": _image(cm)})
        if len(cm) != 1 or set(cm.values()) != {1}:
            ok = False
            continue
        (blk, _g), _m = next(iter(cm.items()))
        if blk in hit:
            ok = False
        hit.add(blk)
        if class_info(rhs.algebra, blk).stabilizer != o.stabilizer.prepend_free(extra_free):
            ok = False
            unstable.append(o.block)
    return correspondence, ok, len(hit), unstable, first


def _equivariance_samples(A: GradedAlgebra, first):
    """Spot-check Z[G]-linearity: inducing a shifted representative lands
    on the shifted class.  ``first`` is an induced representative with
    its class map, as `_orbit_correspondence` returns it."""
    if first is None:
        return True
    X, base = first
    (blk0, g0), _ = next(iter(base.items()))
    stab = class_info(A, blk0).stabilizer
    for gen in A.group.generators():
        shifted = summand_classes(X.shift(gen))
        want = {(blk0, stab.reduce(g0 + gen)): 1}
        if shifted != want:
            return False
    return True


def theorem1_check(A: GradedAlgebra) -> dict:
    """Graded K0 of an N-supported algebra is induced from its zero part:
    K0 of the zero part, base-changed along the leading free coordinate,
    matches graded K0 basis to basis."""
    hyp = []
    has_free = A.group.free_rank >= 1
    hyp.append(_check("leading_free_coordinate", has_free))
    positive = has_free and A.positively_supported()
    hyp.append(
        _check(
            "support_in_N_x_G",
            positive,
            "support bounds along the leading coordinate: %s"
            % (A.support_bounds()[0:1] if has_free else "none"),
        )
    )
    if not (has_free and positive):
        return _report("hypothesis-not-met", hyp)
    B = A.zero_part()
    lhs = k0(B)
    rhs = k0(A)
    induced = induce_module(lhs.module, A.group)
    iso = shift_module_iso(induced, rhs.module)
    hyp.append(_check("induced_module_isomorphic", iso, induced.describe()))
    correspondence, ok, hit, unstable, first = _orbit_correspondence(
        lhs, rhs, lambda X: lift_from_zero_part(A, X)
    )
    for blk in unstable:
        hyp.append(_check(f"stabilizer_match_Q{blk}", False, "induced stabilizer differs"))
    hyp.append(_check("induced_classes_are_basis_classes", ok))
    bijective = ok and hit == len(rhs.orbits)
    hyp.append(_check("orbit_bijection", bijective, f"{hit} of {len(rhs.orbits)} graded orbits hit"))
    equi = _equivariance_samples(A, first)
    hyp.append(_check("shift_equivariance_samples", equi))
    verdict = "pass" if (iso and bijective and equi) else "fail"
    return _report(
        verdict,
        hyp,
        lhs_basis=[o.to_json() for o in lhs.orbits],
        rhs_basis=[o.to_json() for o in rhs.orbits],
        correspondence=correspondence,
        data={
            "zero_part": B.describe(),
            "lhs_module": lhs.module.to_json(),
            "rhs_module": rhs.module.to_json(),
            "induced_module": induced.to_json(),
        },
    )


def quillen_case(A: GradedAlgebra) -> dict:
    """The classical one-variable case: Z-graded, N-supported, no extra
    grading factor; K0(A_0) tensored with the Laurent ring gives graded K0."""
    hyp = []
    is_z = A.group.free_rank == 1 and not A.group.torsion_moduli
    hyp.append(_check("grading_group_is_Z", is_z, A.group.describe()))
    if not is_z:
        return _report("hypothesis-not-met", hyp)
    rep = theorem1_check(A)
    rep["hypothesis_checks"] = hyp + rep["hypothesis_checks"]
    rhs_mod = rep["data"].get("rhs_module")
    if isinstance(rhs_mod, dict):
        rep["data"]["laurent_description"] = rhs_mod.get("description", "")
    return rep


def corollary_check(A: GradedAlgebra) -> dict:
    """Iterate the leading-coordinate theorem through all free coordinates:
    K0 of the multi-variable algebra is the Laurent extension of K0 of its
    total zero part."""
    m = A.group.free_rank
    hyp = [_check("free_rank", m >= 1, f"free rank {m}")]
    if m < 1:
        return _report("hypothesis-not-met", hyp)
    stages = []
    cur = A
    all_pass = True
    for i in range(m):
        stage = theorem1_check(cur)
        stages.append(
            {
                "coordinate": i + 1,
                "algebra": cur.describe(),
                "verdict": stage["verdict"],
                "hypothesis_checks": stage["hypothesis_checks"],
                "correspondence": stage["correspondence"],
            }
        )
        if stage["verdict"] != "pass":
            all_pass = False
            if stage["verdict"] == "hypothesis-not-met":
                return _report("hypothesis-not-met", hyp, data={"stages": stages})
            break
        cur = cur.zero_part()
    base = cur
    lhs = k0(base)
    rhs = k0(A)
    induced = induce_module(lhs.module, A.group)
    iso = shift_module_iso(induced, rhs.module)
    hyp.append(_check("final_laurent_isomorphism", iso, induced.describe()))
    verdict = "pass" if (all_pass and iso) else "fail"
    return _report(
        verdict,
        hyp,
        lhs_basis=[o.to_json() for o in lhs.orbits],
        rhs_basis=[o.to_json() for o in rhs.orbits],
        data={
            "stages": stages,
            "base_algebra": base.describe(),
            "base_module": lhs.module.to_json(),
            "graded_module": rhs.module.to_json(),
        },
    )


def lemma_check(A: GradedAlgebra, extra_free: int = 1) -> dict:
    """Trivially extending the grading tensors K0 with the group ring of
    the new factor: K0 of the extended algebra is the induced module."""
    hyp = [
        _check(
            "support_in_identity_slice",
            True,
            "the extension places the algebra in degree zero of the new "
            f"{extra_free} free coordinate(s) by construction",
        )
    ]
    At = A.trivial_extension(extra_free)
    lhs = k0(A)
    rhs = k0(At)
    induced = induce_module(lhs.module, At.group)
    iso = shift_module_iso(induced, rhs.module)
    hyp.append(_check("induced_module_isomorphic", iso, induced.describe()))
    # the same module over At: new leading coordinates 0
    correspondence, ok, hit, _unstable, _first = _orbit_correspondence(
        lhs,
        rhs,
        lambda X: relabel(X, At, lambda d: At.group.degree((0,) * extra_free + d.values)),
    )
    ok = ok and hit == len(rhs.orbits)
    hyp.append(_check("class_bijection", ok))
    verdict = "pass" if (iso and ok) else "fail"
    return _report(
        verdict,
        hyp,
        lhs_basis=[o.to_json() for o in lhs.orbits],
        rhs_basis=[o.to_json() for o in rhs.orbits],
        correspondence=correspondence,
        data={
            "extended_algebra": At.describe(),
            "lhs_module": lhs.module.to_json(),
            "rhs_module": rhs.module.to_json(),
        },
    )
