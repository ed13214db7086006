"""Command-line entry point: evaluate a script and emit reports.

    gradedk script.gk --json --seed 7 --degree-bound 3
    echo 'k0(matrix(Q, [0,1,2,2,3]))' | gradedk -

Exit codes: 0 when no command fails verification (unmet hypotheses are
reported, not failed), 1 when any verification fails or an invariant is
violated while building objects, 2 for parse/name/type/config errors,
for malformed algebras and degrees, and for algebras outside the
supported family.
JSON output is deterministic: same script, seed and version give byte
identical reports.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import __version__, _kernel, algebra as alg, filtration as filt, ktheory as kt
from .algebra import AlgebraError, GradedAlgebra, HypothesisError
from .dsl import (
    Call,
    Decl,
    Frac,
    GroupPower,
    ListExpr,
    Num,
    ParseError,
    Ref,
    Script,
    parse,
    unparse,
)
from .fields import Field, GF, QQ, parse_field
from .grading import GradingError, GradingGroup, TRIVIAL_GROUP
from .gmod import (
    PresentationError,
    ProjectivePresentation,
    SplitError,
    UnsupportedAlgebra,
    VerificationError,
    default_window,
    free_module,
    graded_iso,
    random_presentation,
)
from .gmod.swan import (
    functor_S,
    functor_T,
    nakayama_zero_test,
    nu,
    psi,
    restriction_map,
    section,
)


class EvalError(ValueError):
    """Name/arity/type errors in scripts: configuration problems (exit 2).

    The message names the script line of the innermost call it was
    raised in (``at``), or the line and column it was built with."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column

    def at(self, line):
        """This error, placed at ``line`` unless it names a line already."""
        if self.line is None:
            self.line = line
        return self

    def __str__(self):
        message = super().__str__()
        if self.line is None:
            return message
        if self.column is None:
            return f"{message} (line {self.line})"
        return f"{message} (line {self.line}, column {self.column})"


INVARIANT_ERRORS = (
    PresentationError,
    SplitError,
    VerificationError,
    AlgebraError,
    GradingError,
)

_REQUIRED = object()  # the default of an argument that must be given


class _Literal(Fraction):
    """A script's fraction literal, printed as written (1/-2, not -1/2)."""

    def __new__(cls, num, den):
        self = super().__new__(cls, num, den)
        self.text = f"{num}/{den}"
        return self

    def __str__(self):
        return self.text

    __repr__ = __str__


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else str(x.numerator)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


class Session:
    """Evaluates declarations and runs commands with fixed options."""

    def __init__(self, seed: int = 0, margin: int = 2, field_override: Field | None = None):
        self.env = {}
        self.seed = seed
        self.margin = margin
        self.field_override = field_override
        self._read = {}  # id(call) -> the positions and keywords its lookups read

    # -- value evaluation -----------------------------------------------------
    def _builtin(self, name: str):
        if name == "Q":
            return self.field_override or QQ
        if name.startswith("F") and name[1:].isdigit():
            return self.field_override or GF(int(name[1:]))
        if name == "Z":
            return GradingGroup(1, ())
        if name.startswith("Z") and name[1:].isdigit():
            return GradingGroup(0, (int(name[1:]),))
        if name == "trivial":
            return TRIVIAL_GROUP
        return None

    def eval(self, node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Frac):
            return _Literal(node.num, node.den)
        if isinstance(node, ListExpr):
            return [self.eval(i) for i in node.items]
        if isinstance(node, GroupPower):
            if node.base != "Z" or node.exponent < 0:
                raise EvalError(f"unknown group literal {node.base}^{node.exponent}")
            return GradingGroup(node.exponent, ())
        if isinstance(node, Ref):
            if node.name in self.env:
                return self.env[node.name]
            try:
                b = self._builtin(node.name)
            except ValueError as exc:  # GradingError among them: F4, Z1, Z0
                raise EvalError(f"{node.name}: {exc}", node.line, node.col) from None
            if b is not None:
                return b
            raise EvalError(f"undefined name {node.name!r}", node.line, node.col)
        if isinstance(node, Call):
            return self._call(node)
        raise EvalError(f"cannot evaluate {node!r}")

    def _arg(self, call, i, name=None, default=_REQUIRED):
        """Argument ``i`` by position (None: keyword only), else keyword
        ``name``, else ``default``.  An argument given both ways is an
        error, whichever of the two would be read.  ``i`` and ``name``
        count as read for the check that follows the call.  A missing
        argument is named by its keyword, else by its position counted
        from 1."""
        read = self._read.setdefault(id(call), set())
        read.add(i)
        keyed = []
        if name:
            read.add(name)
            keyed = [v for k, v in call.kwargs if k == name]
        if i is not None and i < len(call.args):
            if keyed:
                raise EvalError(
                    f"{call.name}: argument {name} given both by position and by keyword"
                )
            return self.eval(call.args[i])
        if keyed:
            return self.eval(keyed[0])
        if default is not _REQUIRED:
            return default
        raise EvalError(f"{call.name} missing argument {name or i + 1}")

    def _check_keywords(self, call, read):
        """A position or keyword that no lookup of ``call`` read, an extra
        argument or a misspelt keyword say, is an error, not a silent
        default."""
        for i, arg in enumerate(call.args):
            if i not in read:
                raise EvalError(f"{call.name}: unexpected argument {unparse(arg)}", call.line)
        for k, _v in call.kwargs:
            if k not in read:
                raise EvalError(f"{call.name}: unknown keyword argument {k}", call.line)

    def _call(self, call: Call):
        name = call.name
        try:
            value = self._dispatch(call)
        except EvalError as exc:
            raise exc.at(call.line)
        except (AlgebraError, GradingError) as exc:
            # an algebra or degree that cannot be built from a script's
            # arguments is malformed input, not a failed invariant
            raise EvalError(f"{name}: {exc}", call.line) from exc
        except (*INVARIANT_ERRORS, HypothesisError):
            raise
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise EvalError(f"{name}: {exc}", call.line) from exc
        finally:
            read = self._read.pop(id(call), set())
        self._check_keywords(call, read)
        return value

    def _degrees(self, group: GradingGroup, raw, what: str):
        """The degrees ``raw`` lists in ``group``, each coordinate checked
        here: ``degree`` skips the check on an interned tuple, and 2/2 == 1."""
        out = []
        for item in raw:
            if isinstance(item, int):
                if group.dim != 1:
                    raise EvalError(
                        f"{what}: scalar degrees need a rank-1 group, not {group.describe()}"
                    )
                item = [item]
            elif not isinstance(item, list):
                raise EvalError(f"{what}: bad degree {item}")
            for v in item:
                if not isinstance(v, int):
                    raise EvalError(f"{what}: degree coordinates must be integers, got {v}")
            out.append(group.degree(item))
        return out

    def _dispatch(self, call: Call):
        name = call.name
        if name == "matrix":
            field = self._expect_field(call, 0)
            shifts = self._arg(call, 1, "shifts")
            group = self._arg(call, None, "group", None)
            if group is not None and not isinstance(group, GradingGroup):
                raise EvalError("matrix: group= must be a grading group")
            g = group or GradingGroup(1, ())
            return alg.matrix_algebra(field, self._degrees(g, shifts, "matrix"), group=g)
        if name == "groupalg":
            field = self._expect_field(call, 0)
            group = self._arg(call, 1, "group")
            if not isinstance(group, GradingGroup):
                raise EvalError("groupalg: second argument must be a grading group")
            return alg.group_algebra(field, group)
        if name == "poly":
            base = self._expect_algebra(call, 0)
            deg = self._arg(call, 1, "deg")
            if not isinstance(deg, list):
                raise EvalError("poly: deg must be a degree vector")
            if len(deg) == base.group.dim + 1:
                base = base.trivial_extension(1)
            (d,) = self._degrees(base.group, [deg], "poly")
            return alg.polynomial_extension(base, d.values)
        if name == "tensor":
            return alg.tensor_product(
                self._expect_algebra(call, 0), self._expect_algebra(call, 1)
            )
        if name == "zero_part":
            return alg.zero_part(self._expect_algebra(call, 0))
        if name == "positive_part":
            return alg.positive_part(self._expect_algebra(call, 0))
        if name == "identity_component":
            return alg.identity_component(self._expect_algebra(call, 0))
        if name == "forget":
            return alg.forget_grading(self._expect_algebra(call, 0))
        if name == "regrade_mod":
            n = self._arg(call, 1, "n")
            if not isinstance(n, int) or n < 2:
                raise EvalError("regrade_mod: modulus must be an integer >= 2")
            return alg.regrade_mod(self._expect_algebra(call, 0), n)
        if name == "trivial_extension":
            k = self._arg(call, 1, "k", 1)
            if not isinstance(k, int) or k < 0:
                raise EvalError("trivial_extension: k must be an integer >= 0")
            return self._expect_algebra(call, 0).trivial_extension(k)
        if name == "group":
            rank = self._arg(call, None, "rank", 0)
            moduli = self._arg(call, None, "moduli", [])
            return GradingGroup(rank, tuple(moduli))
        if name == "free":
            A = self._expect_algebra(call, 0)
            shifts = self._arg(call, 1, "shifts")
            return free_module(A, self._degrees(A.group, shifts, "free"))
        if name == "proj":
            return self._proj(call)
        if name == "random_proj":
            A = self._expect_algebra(call, 0)
            shifts = self._arg(call, 1, "shifts")
            seed = self._arg(call, None, "seed", self.seed)
            if not isinstance(seed, int):
                raise EvalError(f"random_proj: seed must be an integer, got {seed}")
            rng = random.Random(seed)
            return random_presentation(
                A, self._degrees(A.group, shifts, "random_proj"), rng
            )
        raise EvalError(f"unknown constructor {name!r}")

    def _expect_field(self, call, i):
        v = self._arg(call, i, "field")
        if not isinstance(v, Field):
            raise EvalError(f"{call.name}: expected a field, got {v!r}")
        return v

    def _expect_algebra(self, call, i):
        v = self._arg(call, i)
        if not isinstance(v, GradedAlgebra):
            raise EvalError(f"{call.name}: expected an algebra, got {v!r}")
        return v

    def _proj(self, call: Call):
        A = self._expect_algebra(call, 0)
        shifts = self._degrees(A.group, self._arg(call, None, "shifts", None), "proj")
        idem_raw = self._arg(call, None, "idem", None)
        if idem_raw is None:
            raise EvalError("proj: idem=[[...]] is required")
        k = len(shifts)
        if len(idem_raw) != k or any(len(r) != k for r in idem_raw):
            raise EvalError(f"proj: idem must be a {k}x{k} matrix")
        F = A.field
        entries = []
        for i in range(k):
            row = []
            for j in range(k):
                cell = idem_raw[i][j]
                d = shifts[i] - shifts[j]
                dim = A.component_dim(d)
                if cell == 0:
                    row.append(None)
                    continue
                if not isinstance(cell, list):
                    raise EvalError(
                        f"proj: entry ({i},{j}) must be 0 or a coefficient list"
                    )
                if len(cell) != dim:
                    raise EvalError(
                        f"proj: entry ({i},{j}) needs {dim} coefficients for the "
                        f"component at {d}, got {len(cell)}"
                    )
                coords = []
                for c in cell:
                    if isinstance(c, Fraction):
                        try:
                            coords.append(F.of_fraction(c.numerator, c.denominator))
                        except ZeroDivisionError as exc:
                            raise EvalError(f"proj: entry ({i},{j}): {exc}") from None
                    else:
                        coords.append(F.of_int(int(c)))
                row.append(A.element(d, coords) if any(coords) else None)
            entries.append(row)
        return ProjectivePresentation(A, shifts, entries, check=True)

    # -- commands --------------------------------------------------------------
    def run_script(self, script: Script):
        reports = []
        for stmt in script.statements:
            if isinstance(stmt, Decl):
                try:
                    self.env[stmt.name] = self.eval(stmt.expr)
                except EvalError as exc:
                    raise exc.at(stmt.line)
                except INVARIANT_ERRORS as exc:
                    reports.append(
                        self._finish(
                            f"{stmt.name} = {unparse(stmt.expr)}",
                            kt._report(
                                "fail",
                                [kt._check("invariant", False, str(exc))],
                            ),
                        )
                    )
                    break
            else:
                reports.append(self.run_command(stmt.call))
        return reports

    def _finish(self, echo: str, body: dict) -> dict:
        body = dict(body)
        body["command"] = echo
        body["seed"] = self.seed
        body["version"] = __version__
        return _jsonable(body)

    def run_command(self, call: Call) -> dict:
        echo = unparse(call)
        try:
            body = self._run_command_body(call)
        except EvalError as exc:
            raise exc.at(call.line)
        except HypothesisError as exc:
            body = kt._report(
                "hypothesis-not-met", [kt._check("hypothesis", False, str(exc))]
            )
        except INVARIANT_ERRORS as exc:
            body = kt._report(
                "fail", [kt._check("invariant", False, f"{type(exc).__name__}: {exc}")]
            )
        except UnsupportedAlgebra as exc:
            raise EvalError(f"{call.name}: {exc}", call.line) from exc
        finally:
            read = self._read.pop(id(call), set())
        self._check_keywords(call, read)
        return self._finish(echo, body)

    def _run_command_body(self, call: Call) -> dict:
        name = call.name
        if name in ("k0", "dade", "quillen", "theorem1", "corollary", "basis"):
            A = self._expect_algebra(call, 0)
        if name == "k0":
            res = kt.k0(A)
            regular_class = {str(k): v for k, v in res.regular_class.items()}
            return kt._report(
                "pass",
                [kt._check("constructor_family", True)],
                lhs_basis=[o.to_json() for o in res.orbits],
                data={"k0": res.to_json(), "regular_class": regular_class},
            )
        if name == "dade":
            return kt.dade_check(A)
        if name == "quillen":
            return kt.quillen_case(A)
        if name == "theorem1":
            return kt.theorem1_check(A)
        if name == "corollary":
            return kt.corollary_check(A)
        if name == "lemma":
            A = self._expect_algebra(call, 0)
            gamma = self._arg(call, 1, "gamma")
            if isinstance(gamma, GradingGroup):
                if gamma.torsion_moduli:
                    raise EvalError("lemma: the extension factor must be Z^k")
                extra = gamma.free_rank
            elif isinstance(gamma, int) and gamma >= 0:
                extra = gamma
            else:
                raise EvalError("lemma: second argument must be Z^k or an integer >= 0")
            return kt.lemma_check(A, extra)
        if name == "basis":
            deg = self._arg(call, 1, "deg")
            try:
                (d,) = self._degrees(A.group, [deg], "basis")
            except GradingError as exc:
                raise EvalError(f"basis: {exc}") from exc
            labels = [str(lbl) for lbl in A.component_basis(d)]
            return kt._report(
                "pass",
                [],
                data={"degree": list(d.values), "dimension": len(labels), "basis": labels},
            )
        if name == "swan":
            return self._run_swan(self._expect_module(call, 0))
        if name == "filtration":
            return self._run_filtration(self._expect_module(call, 0))
        raise EvalError(f"unknown command {name!r}")

    def _expect_module(self, call, i):
        v = self._arg(call, i)
        if not isinstance(v, ProjectivePresentation):
            raise EvalError(f"{call.name}: expected a module, got {v!r}")
        return v

    def _run_swan(self, P: ProjectivePresentation) -> dict:
        A = P.algebra
        from .gmod.swan import require_positive_support

        require_positive_support(A)
        window = default_window(A, [P], self.margin)
        checks = []
        tp = functor_T(P)
        st = functor_S(tp, A)
        checks.append(
            kt._check("restriction_induction_roundtrip", graded_iso(st, P),
                      "induced restriction is isomorphic to the module")
        )
        tsq = functor_T(st)
        checks.append(
            kt._check(
                "induction_restriction_identity",
                all(tsq.dim(h) == tp.dim(h) for h in window),
                "restricting the induced module recovers it degreewise",
            )
        )
        nq = nu(tp, A)
        checks.append(kt._check("nu_isomorphism", nq.is_iso_on(window)))
        ps = psi(P)
        checks.append(kt._check("psi_isomorphism", ps.is_iso_on(window)))
        rng = random.Random(self.seed)
        ps_seeded = psi(P, rng)
        checks.append(kt._check("psi_isomorphism_seeded_section", ps_seeded.is_iso_on(window)))
        f = restriction_map(P)
        char = A.field.char
        ok_sections = True
        for srng in (None, random.Random(self.seed + 1)):
            g = section(P, srng)
            for h in window:
                mf = f.component_matrix(h)
                mg = g.component_matrix(h)
                n = tp.dim(h)
                if n and _kernel.mat_mul(mf, mg, char) != _kernel.identity(n, char):
                    ok_sections = False
        checks.append(
            kt._check(
                "section_splits_restriction",
                ok_sections,
                "f o g = id for the canonical and a seeded section",
            )
        )
        checks.append(
            kt._check("nakayama_zero", nakayama_zero_test(P, window),
                      "restriction zero forces the module to vanish")
        )
        verdict = "pass" if all(c["ok"] for c in checks) else "fail"
        dims = {str(list(h.values)): P.dim(h) for h in window}
        return kt._report(verdict, checks, data={"component_dims": dims})

    def _run_filtration(self, P: ProjectivePresentation) -> dict:
        A = P.algebra
        window = default_window(A, [P], self.margin)
        jumps = filt.jump_degrees(P)
        bound = filt.filtration_bound(P)
        layers = filt.layers(P)
        checks = []
        checks.append(
            kt._check("layer_dims_additive", filt.layer_dims_additive(P, window))
        )
        from .gmod.presentations import direct_sum

        if layers:
            roundtrip = graded_iso(filt.theta(filt.psi_q(P), A), direct_sum(*layers))
        else:
            roundtrip = P.is_zero()
        checks.append(kt._check("induce_restrict_is_layer_sum", roundtrip))
        tq = filt.psi_q(P)
        back = filt.psi_q(filt.theta(tq, A))
        checks.append(
            kt._check(
                "restrict_induce_identity",
                all(back.dim(h) == tq.dim(h) for h in window),
            )
        )
        sec = filt.verify_section_independence(P, (self.seed, self.seed + 1), self.margin)
        checks.append(kt._check("section_independence", sec["ok"]))
        sat_low = filt.filter_module(P, -bound).is_zero() if bound else True
        sat_high = graded_iso(filt.filter_module(P, bound), P) if bound else True
        checks.append(kt._check("saturation", sat_low and sat_high))
        verdict = "pass" if all(c["ok"] for c in checks) else "fail"
        layer_ranks = {
            str(lam): {str(list(h.values)): L.dim(h) for h in window if L.dim(h)}
            for lam, L in zip(jumps, layers)
        }
        return kt._report(
            verdict,
            checks,
            data={"jumps": jumps, "bound": bound, "layer_ranks": layer_ranks},
        )


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------


def _render_text(reports) -> str:
    lines = []
    for i, r in enumerate(reports):
        lines.append(f"[{i}] {r['command']} -> {r['verdict'].upper()}")
        for c in r.get("hypothesis_checks", []):
            mark = "ok" if c["ok"] else "FAIL"
            detail = f" - {c['detail']}" if c.get("detail") else ""
            lines.append(f"      {mark:4} {c['name']}{detail}")
        data = r.get("data", {})
        for key in ("k0", "rhs_module", "induced_module"):
            mod = data.get(key)
            if isinstance(mod, dict):
                desc = mod.get("description") or (mod.get("module") or {}).get("description")
                if desc:
                    lines.append(f"      {key}: {desc}")
        if data.get("jumps") is not None:
            lines.append(f"      jumps: {data['jumps']} bound: {data['bound']}")
        if data.get("basis") is not None:
            lines.append(f"      basis: {data['basis']}")
    return "\n".join(lines) + ("\n" if lines else "")


def run_text(text: str, seed: int = 0, margin: int = 2, field_override=None):
    script = parse(text)
    session = Session(seed=seed, margin=margin, field_override=field_override)
    return session.run_script(script)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradedk",
        description="graded K0 calculator for Z^m x G-graded algebras",
    )
    parser.add_argument("script", nargs="?", default="-",
                        help="script file ('-' or omitted: read stdin)")
    parser.add_argument("--json", action="store_true", help="emit JSON reports")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (recorded in reports)")
    parser.add_argument("--degree-bound", type=int, default=2,
                        help="extra margin for verification windows")
    parser.add_argument("--field", type=str, default=None,
                        help="override field declarations: q or fp:<p>")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    args = parser.parse_args(argv)
    if args.degree_bound < 0:
        print(f"error: --degree-bound must be >= 0, got {args.degree_bound}", file=sys.stderr)
        return 2

    try:
        override = parse_field(args.field) if args.field else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.script == "-":
            text = sys.stdin.read()
        else:
            with open(args.script, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        reports = run_text(
            text, seed=args.seed, margin=args.degree_bound, field_override=override
        )
    except (ParseError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(reports, sort_keys=True, indent=2))
    else:
        sys.stdout.write(_render_text(reports))
    return 1 if any(r["verdict"] == "fail" for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
