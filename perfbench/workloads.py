"""Workloads: inputs made from a seed, the jobs of one pass, and an oracle for every answer.

Importing this module imports liefact, so only the worker process does.
Why each workload exists, and which metrics it should move, is in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

from liefact import Field, Matrix, deform, derivations, iso, liecore, matched, scenarios
from liefact.exactmath import basis_vector


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    # None when the answer is right, otherwise what is wrong with it
    check: Callable[[object], Optional[str]]


# -- catalog scenarios (index-n1) ---------------------------------------------------

# The benchmark's own copy of the expected answers, so that a catalog edit
# cannot make a wrong answer pass.
SCENARIO_EXPECTED = {
    "n1-index": lambda p: {"index": 3, "reps_match_catalog": True},
    "m4-index": lambda p: {"index": (1 + p) // 2},
}


def _scenario_job(scenario_id: str, p: int) -> Job:
    scenario = scenarios.find_scenario(scenario_id)

    def run():
        return scenarios.run_scenario(scenario, p=p)

    def check(result) -> Optional[str]:
        got = {c.name: c.actual for c in result.checks}
        want = SCENARIO_EXPECTED[scenario_id](p)
        if result.field_label != f"GF({p})":
            return f"ran over {result.field_label}, expected GF({p})"
        if got != want:
            return f"got {got}, expected {want}"
        if not result.passed:
            return "the catalog rejects the answer"
        return None

    return Job(f"{scenario_id}@GF({p})", run, check)


def setup_index_n1(rng: random.Random) -> list:
    jobs = [_scenario_job("n1-index", p) for p in (5, 7)]
    jobs += [_scenario_job("m4-index", p) for p in (3, 5, 7)]
    rng.shuffle(jobs)
    return jobs


# -- automorphism-triple group of the inner-twisted sl2 extension (autgroup-sl2) -----

AUT_FIELD = Field.gf(3)
# |Aut(sl2)| over GF(3): PGL(2, 3), of order 24, times the 2 units
AUT_TRIPLES = 48
# first factors of the group-law jobs, as indices into the enumerated triples
GROUP_LAW_ROWS = (5, 23, 40)


def _raw(t) -> tuple:
    """(alpha, h0, v) of a triple as plain ints mod p, v row-major."""
    return (t.alpha.value, tuple(x.value for x in t.h0),
            tuple(x.value for x in t.v.matrix.entries_flat()))


def _raw_product(a: tuple, b: tuple, p: int) -> tuple:
    """(alpha,h,v)*(beta,g,w) = (alpha*beta, beta*h + v(g), v∘w), in plain ints."""
    (al, h, v), (be, g, w) = a, b
    n = len(h)
    vg = [sum(v[r * n + k] * g[k] for k in range(n)) for r in range(n)]
    vw = tuple(sum(v[r * n + k] * w[k * n + c] for k in range(n)) % p
               for r in range(n) for c in range(n))
    return (al * be % p, tuple((be * h[r] + vg[r]) % p for r in range(n)), vw)


def _triples_job(sl2, delta) -> Job:
    p = AUT_FIELD.p

    def check(triples) -> Optional[str]:
        raw = {_raw(t) for t in triples}
        if len(triples) != AUT_TRIPLES or len(raw) != AUT_TRIPLES:
            return f"{len(triples)} triples ({len(raw)} distinct), expected {AUT_TRIPLES}"
        n = sl2.dim
        identity = (1, (0,) * n, tuple(int(r == c) for r in range(n) for c in range(n)))
        if identity not in raw:
            return "the identity triple is missing"
        if any(_raw_product(a, b, p) not in raw for a in raw for b in raw):
            return "the triples are not closed under the product"
        return None

    return Job("aut-triples@GF(3)", lambda: iso.enumerate_aut_triples(sl2, delta), check)


def _group_law_job(row: int, triples: list) -> Job:
    """Both bracketings of t1*t2*t3 for one t1 and every t2, t3."""
    t1 = triples[row]
    p = AUT_FIELD.p

    def run():
        out = []
        for t2 in triples:
            t12 = iso.aut_multiply(t1, t2)
            for t3 in triples:
                out.append((_raw(iso.aut_multiply(t12, t3)),
                            _raw(iso.aut_multiply(t1, iso.aut_multiply(t2, t3)))))
        return out

    def check(products) -> Optional[str]:
        raw = [_raw(t) for t in triples]
        want = [_raw_product(_raw_product(raw[row], b, p), c, p) for b in raw for c in raw]
        if len(products) != len(want):
            return f"{len(products)} products, expected {len(want)}"
        for (lhs, rhs), w in zip(products, want):
            if lhs != w or rhs != w:
                return f"product {lhs} / {rhs}, expected {w}"
        return None

    return Job(f"group-law-t{row}@GF(3)", run, check)


def setup_autgroup_sl2(rng: random.Random) -> list:
    sl2 = matched.make_sl2(AUT_FIELD)
    delta = sl2.ad(basis_vector(AUT_FIELD, sl2.dim, 0))
    triples = iso.enumerate_aut_triples(sl2, delta)
    jobs = [_triples_job(sl2, delta)] + [_group_law_job(r, triples) for r in GROUP_LAW_ROWS]
    rng.shuffle(jobs)
    return jobs


# -- deformation sweep (sweep-n2) -----------------------------------------------------

SWEEP_FIELD = Field.gf(5)


@cache
def _closed_form_maps(family: str) -> frozenset:
    build = {"L": deform.closed_form_defmaps_L, "m": deform.closed_form_defmaps_m}[family]
    return frozenset(d.matrix for fam in build(2, SWEEP_FIELD) for d in fam.enumerate())


def _sweep_job(family: str, mp, count: int) -> Job:
    def run():
        return deform.enumerate_deformation_maps(mp)

    def check(maps) -> Optional[str]:
        got = [d.matrix for d in maps]
        if len(got) != count or len(set(got)) != count:
            return f"{len(got)} maps ({len(set(got))} distinct), expected {count}"
        if set(got) != _closed_form_maps(family):
            return "the maps differ from the closed-form families"
        return None

    return Job(f"sweep-{family}(6)@GF(5)", run, check)


def setup_sweep_n2(rng: random.Random) -> list:
    # p^n - 1 + p^(n+1) maps for L(6), 2(p^n - 1) + p for m(6), at n = 2, p = 5
    jobs = [
        _sweep_job("L", matched.canonical_pair_L(2, SWEEP_FIELD), 149),
        _sweep_job("m", matched.canonical_pair_m(2, SWEEP_FIELD), 53),
    ]
    rng.shuffle(jobs)
    return jobs


# -- invariants over Q in a random basis (invariants-q) -------------------------------

Q = Field.rationals()

ALGEBRAS = {
    "sl2": matched.make_sl2,
    "L(4)": lambda f: matched.make_L(1, f),
    "l(5)": lambda f: matched.make_l(2, f),
    "h5": matched.make_h5,
    "L(6)": lambda f: matched.make_L(2, f),
    "m(6)": lambda f: matched.make_m(2, f),
}


def _unimodular(rng: random.Random, n: int, steps: int) -> list:
    """Integer matrix of determinant 1: `steps` column operations c_i += ±c_j."""
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        for row in m:
            row[i] += s * row[j]
    return m


def random_basis(name: str, n: int, rng: random.Random) -> Matrix:
    """A dense integer basis with entries of a fixed pattern and seeded signs.

    The dense part comes from a constant seed; the run's seed only flips the
    signs of basis vectors.  Flipping signs scales rows and columns of every
    linear system by ±1, so the elimination work, and with it the pass time,
    is the same for every seed; a fully random basis changes the pass time
    by up to 2x from one seed to the next.
    """
    dense = _unimodular(random.Random(f"invariants-q:{name}"), n, 2 * n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return Matrix(Q, [[x * s for x, s in zip(row, signs)] for row in dense])


# one job per algebra and entry, so that no job is much longer than a second
INVARIANTS = {
    "der": lambda a: len(derivations.derivation_space(a)),
    "forms": lambda a: len(liecore.invariant_bilinear_forms(a)),
    "self_dual": lambda a: liecore.self_dual(a).verdict,
    "fp+jacobi": lambda a: (iso.fingerprint(a).as_tuple(), len(a.check_jacobi())),
}


def invariants(algebra: liecore.LieAlgebra) -> dict:
    """dim Der, dim of invariant forms, self-dual verdict, fingerprint and Jacobi defects."""
    return {kind: compute(algebra) for kind, compute in INVARIANTS.items()}


@cache
def _canonical_invariants(name: str) -> dict:
    return invariants(ALGEBRAS[name](Q))


def _invariants_job(name: str, kind: str, algebra) -> Job:
    compute = INVARIANTS[kind]

    def check(answer) -> Optional[str]:
        want = _canonical_invariants(name)[kind]
        if answer != want:
            return f"got {answer}, canonical basis gives {want}"
        return None

    return Job(f"{kind}-{name}@Q", lambda: compute(algebra), check)


def invariants_inputs(rng: random.Random) -> dict:
    """name -> (change of basis, algebra in that basis)."""
    out = {}
    for name, make in ALGEBRAS.items():
        canonical = make(Q)
        p = random_basis(name, canonical.dim, rng)
        out[name] = (p, canonical.change_basis(p))
    return out


def setup_invariants_q(rng: random.Random) -> list:
    jobs = [_invariants_job(name, kind, alg)
            for name, (_, alg) in invariants_inputs(rng).items() for kind in INVARIANTS]
    rng.shuffle(jobs)
    return jobs


SETUP = {
    "index-n1": setup_index_n1,
    "sweep-n2": setup_sweep_n2,
    "autgroup-sl2": setup_autgroup_sl2,
    "invariants-q": setup_invariants_q,
}


def build(workload: str, seed: int) -> list:
    """The jobs of one pass; the same seed gives the same inputs in the same order."""
    return SETUP[workload](random.Random(seed))
