"""The benchmark's workloads: inputs built from a seed, jobs with exact oracles.

A workload's ``build(seed)`` makes one pass's inputs and returns its job
list: ``[(label, fn)]``, where ``fn()`` runs one top-level gradedk call
and returns whether the answer agrees with an oracle taken from theory
(or, for the CLI, with a golden copy), never from gradedk itself.  Every
pass calls ``build`` again, so no pass inherits another pass's
per-algebra caches.

Each job calls gradedk through module attributes (``kt.k0``, not a
name imported into this file), so that the tracer's rebinding reaches
the benchmark's own calls too.
"""

import json
import random
from math import gcd
from pathlib import Path

from gradedk import algebra as alg, cli, filtration as filt, ktheory as kt
from gradedk import gmod
from gradedk.fields import GF, QQ
from gradedk.grading import GradingGroup, Subgroup

HERE = Path(__file__).resolve().parent

FIELDS = {"Q": QQ, "F2": GF(2), "F7": GF(7)}


def _shuffled(seed, items):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# number theory for the group-algebra oracles (independent of gradedk)
# ---------------------------------------------------------------------------


def _phi(d):
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def _mult_order(p, d):
    if d == 1:
        return 1
    k, x = 1, p % d
    while x != 1:
        x = x * p % d
        k += 1
    return k


def _element_orders(moduli):
    """Multiset {order: count} of the elements of Z/m1 x ... x Z/mk."""
    counts = {1: 1}
    for m in moduli:
        nxt = {}
        for o, c in counts.items():
            for x in range(m):
                order = m // gcd(x, m)
                lcm = o * order // gcd(o, order)
                nxt[lcm] = nxt.get(lcm, 0) + c
        counts = nxt
    return counts


def group_algebra_k0_rank(moduli, char):
    """Rank of K0 of the ungraded group algebra F[G], G finite abelian.

    Over Q it is the number of cyclic subgroups of G (each cyclic
    subgroup of order d has phi(d) generators).  Over F_p the simple
    modules are the Frobenius orbits on the characters of the p'-part of
    G; the characters of order d (p not dividing d) fall into orbits of
    size ord_d(p).  For cyclic G of order n this is
    sum over d | n' of phi(d) / ord_d(p), n' the p'-part of n.
    """
    orders = _element_orders(moduli)
    if char == 0:
        return sum(c // _phi(d) for d, c in orders.items())
    return sum(c // _mult_order(char, d) for d, c in orders.items() if d % char)


# ---------------------------------------------------------------------------
# k0_matrix: the criterion-1 trio and ungraded M_n, over Q and F2
# ---------------------------------------------------------------------------

M5_SHIFTS = [0, 1, 2, 2, 3]


def _k0_m5(F):
    res = kt.k0(alg.matrix_algebra(F, M5_SHIFTS))
    # one column module, moved freely by every shift: Z[Z] free of rank 1
    return (
        len(res.orbits) == 1
        and res.orbits[0].stabilizer == Subgroup.trivial(res.group)
        and res.module.describe() == "free Z[Z]-module of rank 1"
    )


def _k0_zero_part(F):
    res = kt.k0(alg.matrix_algebra(F, M5_SHIFTS).zero_part())
    # the zero part is a product of matrix rings, one per distinct shift
    want = len(set(M5_SHIFTS))
    return res.module.total_rank() == want and len(res.orbits) == want


def _k0_rank_one(A):
    # a simple algebra M_n(F) has K0 = Z
    return kt.k0(A).module.total_rank() == 1


def build_k0_matrix(seed):
    jobs = []
    for fname in ("Q", "F2"):
        F = FIELDS[fname]
        jobs.append((f"k0(M5) {fname}", lambda F=F: _k0_m5(F)))
        jobs.append((f"k0(zero_part(M5)) {fname}", lambda F=F: _k0_zero_part(F)))
        jobs.append((
            f"k0(forget(M5)) {fname}",
            lambda F=F: _k0_rank_one(alg.forget_grading(alg.matrix_algebra(F, M5_SHIFTS))),
        ))
        # (M6 is left out: at 2-4 s a job it would hold a pass to two or
        # three repetitions a run, too few for a steady median)
        for n in (4, 5):
            jobs.append((
                f"k0(forget(M{n})) {fname}",
                lambda F=F, n=n: _k0_rank_one(alg.forget_grading(alg.matrix_algebra(F, [0] * n))),
            ))
    return _shuffled(seed, jobs)


# ---------------------------------------------------------------------------
# k0_groupalg: ungraded group algebras of abelian groups, over Q, F2, F7
# ---------------------------------------------------------------------------

GROUPS = [(12,), (15,), (16,), (2, 6)]


def build_k0_groupalg(seed, rank_offset=0):
    jobs = []
    for fname, F in FIELDS.items():
        for moduli in GROUPS:
            want = group_algebra_k0_rank(moduli, F.char) + rank_offset
            label = "k0(forget(groupalg({}, {})))".format(
                fname, " x ".join(f"Z{m}" for m in moduli))

            def job(F=F, moduli=moduli, want=want):
                A = alg.forget_grading(alg.group_algebra(F, GradingGroup(0, moduli)))
                res = kt.k0(A)
                return res.module.total_rank() == want and len(res.orbits) == want

            jobs.append((label, job))
    return _shuffled(seed, jobs)


# ---------------------------------------------------------------------------
# swan_filtration: criteria 2/3 checks on seeded corpus modules
# ---------------------------------------------------------------------------


def corpus():
    """The criterion 2/3 corpus: four N-supported algebras over Q, each with
    the shift pattern its random modules use."""
    M5 = alg.matrix_algebra(QQ, M5_SHIFTS)
    B = alg.group_algebra(QQ, GradingGroup(0, (2,)))
    return [
        ("positive_part(M5)", M5.positive_part(), [[0], [1], [2]]),
        ("M2(0,1)[x]", alg.polynomial_extension(alg.matrix_algebra(QQ, [0, 1]), [1, 0]),
         [[0, 0], [1, 1], [0, 1]]),
        ("Q[x]", alg.polynomial_extension(alg.matrix_algebra(QQ, [0]), [1]), [[0], [-1], [2]]),
        ("B[x]", alg.polynomial_extension(B, [1, 1]), [[0, 0], [1, 1], [2, 0]]),
    ]


def _summand_count(module_seed, k):
    """Free summands of ``random_presentation(A, shifts, Random(module_seed))``:
    the number of ones in the 0/1 diagonal it draws first (at least one)."""
    rng = random.Random(module_seed)
    diag = [rng.randint(0, 1) for _ in range(k)]
    return sum(diag) or 1


# Summand counts drawn per corpus algebra, one module each.  Over
# positive_part(M5) a module with two summands takes about half a pass
# (three, several seconds), and its cost varies with the seed's
# conjugators by a quarter, which alone would spread the pass time by
# a tenth from seed to seed; so that algebra gets three one-summand
# modules instead.
SUMMAND_COUNTS = [(1, 1, 1), (1, 2, 3), (1, 2, 3), (1, 2, 3)]


def module_seeds(seed, k=3):
    """For each corpus algebra and each of its ``SUMMAND_COUNTS``, one
    module seed.

    Module cost grows steeply with the summand count (over
    positive_part(M5) a one-summand module takes a few tenths of a second
    and a three-summand one several seconds), so every pass holds the
    same counts and the seed picks only the conjugating matrices.
    Sampling the count as well would make the pass time depend on the
    seed far more than on the program.
    """
    rng = random.Random(seed)
    out = []
    for a, counts in enumerate(SUMMAND_COUNTS):
        for r in counts:
            while True:
                s = rng.randrange(1 << 30)
                if _summand_count(s, k) == r:
                    out.append((a, r, s))
                    break
    return out


def _swan_checks(A, P, seed):
    """The criterion 2 (correspondence) and criterion 3 (filtration) checks
    on one module, one job each, as the acceptance suite states them."""

    def window():
        return gmod.default_window(A, [P], 2)

    def st_p():
        return gmod.graded_iso(gmod.functor_S(gmod.functor_T(P), A), P, seed)

    def ts_q():
        Q = gmod.functor_T(P)
        back = gmod.functor_T(gmod.functor_S(Q, A))
        return all(back.dim(h) == Q.dim(h) for h in window())

    def nu_iso():
        Q = gmod.functor_T(P)
        return gmod.nu(Q, A).is_iso_on([h for h in window() if Q.dim(h)])

    def psi_iso():
        return gmod.psi(P, random.Random(seed)).is_iso_on(window())

    def layer_sum():
        ls = filt.layers(P)
        return all(sum(L.dim(h) for L in ls) == P.dim(h) for h in window())

    def theta_psi_q():
        ls = filt.layers(P)
        if not ls:
            return True
        return gmod.graded_iso(
            filt.theta(filt.psi_q(P), A), gmod.direct_sum(*ls), seed)

    def psi_q_theta():
        Q = gmod.functor_T(P)
        back = filt.psi_q(filt.theta(Q, A))
        return all(back.dim(h) == Q.dim(h) for h in window())

    def section_independence():
        return filt.verify_section_independence(P, (seed, seed + 1), 2)["ok"]

    def layer_seeds():
        for k in range(len(filt.jump_degrees(P))):
            a = filt.layer(P, k, section_seed=seed)
            b = filt.layer(P, k, section_seed=seed + 1)
            if a.shifts != b.shifts or a.entries != b.entries:
                return False
        return True

    return [
        ("ST(P)=P", st_p), ("TS(Q)=Q", ts_q), ("nu iso", nu_iso), ("psi iso", psi_iso),
        ("layer sum", layer_sum), ("theta(psi_q)", theta_psi_q),
        ("psi_q(theta)", psi_q_theta), ("section independence", section_independence),
        ("layer seeds", layer_seeds),
    ]


def build_swan_filtration(seed):
    algebras = corpus()
    modules = []
    for a, r, s in module_seeds(seed):
        name, A, shifts = algebras[a]
        P = gmod.random_presentation(A, shifts, random.Random(s))
        modules.append((f"{name} r={r} seed={s}", A, P, s))
    jobs = []
    for label, A, P, s in _shuffled(seed, modules):
        for check, fn in _swan_checks(A, P, s):
            jobs.append((f"{check} on {label}", fn))
    return jobs


# ---------------------------------------------------------------------------
# cli_demo: the README demo script, one job per command
# ---------------------------------------------------------------------------

DEMO_SCRIPT = HERE / "demo.gk"
DEMO_GOLDEN = HERE / "demo.golden.json"


def _dump(reports):
    return json.dumps(reports, sort_keys=True, indent=2)


def demo_chunks(text):
    """Split the script into jobs: each command with the declarations
    before it.  Statements are one per line."""
    chunks, pending = [], []
    for line in text.splitlines():
        code = line.split("#", 1)[0].strip()
        if not code:
            continue
        pending.append(code)
        if "=" not in code.split("(", 1)[0]:
            chunks.append("\n".join(pending) + "\n")
            pending = []
    return chunks


def build_cli_demo(seed):
    """The seed has no effect here: the script and its golden output are
    fixed."""
    text = DEMO_SCRIPT.read_text(encoding="utf-8")
    golden_text = DEMO_GOLDEN.read_text(encoding="utf-8")
    golden = json.loads(golden_text)
    if _dump(golden) + "\n" != golden_text:
        raise ValueError("golden file is not in the CLI's --json layout")
    chunks = demo_chunks(text)
    if len(cli.parse(text).statements) != sum(c.count("\n") for c in chunks):
        raise ValueError("demo script does not have one statement per line")
    if len(chunks) != len(golden):
        raise ValueError("golden file has a different number of reports")
    session = cli.Session(seed=0, margin=2)
    jobs = []
    for i, chunk in enumerate(chunks):
        command = chunk.splitlines()[-1]

        def job(chunk=chunk, want=golden[i]):
            reports = session.run_script(cli.parse(chunk))
            return _dump(reports) == _dump([want])

        jobs.append((command, job))
    return jobs


WORKLOADS = {
    "k0_matrix": build_k0_matrix,
    "k0_groupalg": build_k0_groupalg,
    "swan_filtration": build_swan_filtration,
    "cli_demo": build_cli_demo,
}
