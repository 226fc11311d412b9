"""Constructive coboundary solving in closed form.

Given a graded 2-cochain phi that is a cocycle for the deformed
differential and whose classical limit has vanishing antisymmetrization,
this module produces a 1-cochain psi with d(psi) = phi as an exact
normal-form identity.  The coefficient monomial q^E is inert under the
coboundary, so psi is read through its symbol sigma(p, xi) and the
equation is solved one lam-level a = 0..degree at a time, lowest first
(the delta / delta^-1 recursion of Fedosov):

* the antisymmetric part of the level-a residual is a biderivation
  sum_{k<l} omega_kl (D_k (x) D_l - D_l (x) D_k) whose coefficients form
  a closed momentum 2-form omega.  With d_p X = omega (the axial
  potential of `koszul`), the derivation lam^(a-1) (-2i) X_l(p) D_l has
  exactly this antisymmetric part as its level-a coboundary;
* what remains at level a is a symmetric classical cocycle, inverted by
  polarization: sigma_m(xi) = phi_m(xi, xi) / (2 - 2^m) for the part of
  total derivative order m, i.e. termwise
  p^I c D^{J1} (x) D^{J2} -> p^I c / (2 - 2^m) D^{J1+J2}.

The deformed coboundary of each new piece is subtracted from the
residual, which pushes its higher-order terms to later levels.  The
returned solution is re-verified symbolically against the original
target.  The classical arity-3 solve of
`starspec.make_linear_poisson_2d_star` is a closed-form recursion on
monomial values (an algebraic Morse matching on the bar complex of the
polynomial ring, Skoldberg 2006), also certified; the sparse eliminator
below is off the pipeline and is the tests' reference for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cochain import MultiDiffCochain, alt, coboundary, find_witness
from .koszul import KoszulForm, axial_potential
from .rationals import GaussianRational, ONE
from .terms import accumulate, exponents
from .welement import _add_idx
from .weyl import ConsistencyError, _lower


class CocyclePrecondition(ValueError):
    """The target is not solvable: precondition violated, with witness."""


@dataclass
class SolveReport:
    degree: int = 0
    potential_levels: list = field(default_factory=list)

    # always empty; perfbench/tracer.py's on_solve still reads them
    direct_blocks = property(lambda self: ())
    bounds_tried = property(lambda self: ())

    def to_json(self) -> dict:
        return {"degree": self.degree, "potential_levels": self.potential_levels}


# ---------------------------------------------------------------------------
# exact sparse elimination (off the pipeline)
# ---------------------------------------------------------------------------

def solve_sparse_system(columns, rhs, col_order):
    """Solve sum_c M[:, c] x_c = rhs over Q(i).

    columns: mapping col -> list of (row_key, coeff); rhs: mapping
    row_key -> coeff.  Returns a dict col -> coeff (free columns are
    zero) or None when inconsistent.
    No pipeline path calls it; it and its helpers stay as the tests'
    reference for `solve_classical_coboundary` and because
    perfbench/tracer.py wraps this name.
    """
    col_index = {c: i for i, c in enumerate(col_order)}
    rows: dict = {}
    for c, entries in columns.items():
        ci = col_index[c]
        for rk, v in entries:
            accumulate(rows.setdefault(rk, {}), ci, v)
    row_list = []
    rhs_list = []
    all_rows = set(rows) | set(rhs)
    for rk in sorted(all_rows, key=_row_sort_key):
        row_list.append(rows.get(rk, {}))
        rhs_list.append(rhs.get(rk, _GZERO))

    ncols = len(col_order)
    # column -> set of row ids currently containing it
    occupancy = [set() for _ in range(ncols)]
    for ri, r in enumerate(row_list):
        for ci in r:
            occupancy[ci].add(ri)

    pivot_of_col = {}
    used_rows = set()
    for ci in range(ncols):
        candidates = [ri for ri in occupancy[ci] if ri not in used_rows]
        if not candidates:
            continue
        ri = min(candidates, key=lambda r: (len(row_list[r]), r))
        used_rows.add(ri)
        pivot_of_col[ci] = ri
        piv = row_list[ri][ci]
        inv = piv.inverse()
        if inv != ONE or piv != ONE:
            row_list[ri] = {c: v * inv for c, v in row_list[ri].items()}
            rhs_list[ri] = rhs_list[ri] * inv
            # occupancy unchanged
        prow = row_list[ri]
        prhs = rhs_list[ri]
        for rj in list(occupancy[ci]):
            if rj == ri:
                continue
            factor = row_list[rj].get(ci)
            if not factor:
                continue
            target = row_list[rj]
            for c, v in prow.items():
                nv = target.get(c, _GZERO) - factor * v
                if nv:
                    if c not in target:
                        occupancy[c].add(rj)
                    target[c] = nv
                else:
                    if c in target:
                        del target[c]
                        occupancy[c].discard(rj)
            rhs_list[rj] = rhs_list[rj] - factor * prhs

    for ri, r in enumerate(row_list):
        if ri not in used_rows and rhs_list[ri]:
            return None

    solution = {}
    for ci, ri in pivot_of_col.items():
        v = rhs_list[ri]
        if v:
            solution[col_order[ci]] = v
    return solution


_GZERO = GaussianRational(0)


def _row_sort_key(rk):
    # rows keyed by (a, I, Jvec); sort by lam-power then structure
    a, idx, jvec = rk
    return (a, sum(sum(j) for j in jvec), idx, jvec)


# ---------------------------------------------------------------------------
# classical arity-3 solve in closed form
# ---------------------------------------------------------------------------

def solve_classical_coboundary(target: MultiDiffCochain):
    """Solve d0(psi) = target for a normalized arity-3 target.

    The classical coboundary leaves lam, p and the coefficient monomial
    q^E inert and preserves the total derivative order t, so each block
    (a, I, q^E, t) is a constant-coefficient problem, solved through the
    values of psi on monomials at q = 0 (`_value`).  Returns the
    normalized 2-cochain psi, or None when d0(psi) != target (the
    obstruction is an antisymmetric class).
    """
    if target.arity != 3 or any(
            not any(j) for (_a, _i, jvec) in target.terms for j in jvec):
        raise ValueError("target must be a normalized arity-3 cochain")
    n = target.n
    blocks: dict = {}
    for (a, idx, jvec, exp), c in target.flat_terms():
        t = sum(sum(j) for j in jvec)
        blocks.setdefault((a, idx, exp, t), {})[jvec] = c * _factorial(jvec)
    flat: dict = {}
    for (a, idx, exp, t), phi in blocks.items():
        for t1 in range(1, t):
            for j1 in exponents(n, t1):
                for j2 in exponents(n, t - t1):
                    c = _value(phi, j1, j2)
                    if c:
                        flat[(a, idx, (j1, j2), exp)] = c / _factorial((j1, j2))
    psi = MultiDiffCochain.from_flat(flat, n, target.K, 2)
    return psi if coboundary(psi, deformed=False) == target else None


def _factorial(jvec) -> int:
    return math.prod(math.factorial(e) for j in jvec for e in j)


def _last(e: tuple) -> int:
    return max(i for i, x in enumerate(e) if x)


def _unit(n: int, k: int) -> tuple:
    return tuple(1 if i == k else 0 for i in range(n))


def _value(phi: dict, x: tuple, y: tuple) -> GaussianRational:
    """C(q^x, q^y) = x! y! times the coefficient of D^x (x) D^y, from
    the target's values phi = -C(xy, z) + C(x, yz) on monomial triples.
    With l the last index of a nonzero exponent, C(x, y' q_l) =
    Phi(x, y', q_l) + C(x y', q_l), C(x' q_l, q_k) = Phi(x', q_k, q_l)
    - Phi(x', q_l, q_k) for k < l, and C = 0 on (J - e_l, e_l)."""
    if sum(y) >= 2:
        l = _last(y)
        rest = _lower(y, l)
        el = _unit(len(y), l)
        return phi.get((x, rest, el), _GZERO) + _value(phi, _add_idx(x, rest), el)
    k, l = _last(y), _last(x)
    if sum(x) < 2 or k >= l:
        return _GZERO
    rest = _lower(x, l)
    el = _unit(len(x), l)
    return phi.get((rest, y, el), _GZERO) - phi.get((rest, el, y), _GZERO)


# ---------------------------------------------------------------------------
# closed-form deformed solve
# ---------------------------------------------------------------------------

def check_solvability_preconditions(phi: MultiDiffCochain):
    """Cocycle and symmetric-classical-part checks, with witnesses."""
    dphi = coboundary(phi, deformed=True)
    if not dphi.is_zero():
        args, val = find_witness(dphi)
        raise CocyclePrecondition(
            "target is not a cocycle; witness arguments "
            f"{[str(a) for a in args]} give {val}"
        )
    obstruction = alt(phi.classical_limit())
    if not obstruction.is_zero():
        args, val = find_witness(obstruction)
        raise CocyclePrecondition(
            "classical limit has a nonzero antisymmetric part; witness "
            f"arguments {[str(a) for a in args]} give {val}"
        )


def _level(phi: MultiDiffCochain, a: int) -> MultiDiffCochain:
    return MultiDiffCochain(phi.n, phi.K, phi.arity,
                            {k: p for k, p in phi.terms.items() if k[0] == a})


_MINUS_TWO_I = GaussianRational(0, -2)


def _potential_term(antisym: MultiDiffCochain, a: int) -> MultiDiffCochain:
    """The derivation lam^(a-1) (-2i) X_l(p) D_l whose level-a coboundary
    is the antisymmetric biderivation antisym: d_p X = omega, the 2-form
    of antisym's coefficients on the slots (D_k, D_l), k < l."""
    n = antisym.n
    omega = {}
    for (_a, idx, (j1, j2)), poly in antisym.terms.items():
        if a == 0 or sum(j1) != 1 or sum(j2) != 1:
            raise ConsistencyError(
                f"antisymmetric part at lam-level {a} is not a lam multiple "
                "of a biderivation")
        k, l = j1.index(1), j2.index(1)
        if k < l:
            omega[(idx, (k, l))] = poly
    try:
        potential = axial_potential(KoszulForm(n, 2, omega))
    except ValueError:
        raise ConsistencyError(
            f"antisymmetric part at lam-level {a} is not closed") from None
    return MultiDiffCochain(n, antisym.K, 1, {
        (a - 1, idx, (_unit(n, l),)):
            poly.scale(_MINUS_TWO_I)
        for (idx, (l,)), poly in potential.terms.items()
    })


def _polarized_term(part: MultiDiffCochain) -> MultiDiffCochain:
    """The 1-cochain sigma whose classical coboundary is the symmetric
    classical cocycle part: sigma_m(xi) = part_m(xi, xi) / (2 - 2^m)."""
    out: dict = {}
    for (a, idx, (j1, j2)), poly in part.terms.items():
        m = sum(j1) + sum(j2)
        if m == 1:
            raise ConsistencyError(
                f"symmetric part at lam-level {a} has a first-order term")
        accumulate(out, (a, idx, (_add_idx(j1, j2),)),
                   poly.scale(Fraction(1, 2 - 2 ** m)))
    return MultiDiffCochain(part.n, part.K, 1, out)


def solve_coboundary(phi: MultiDiffCochain):
    """Find psi with d(psi) = phi, exactly.  Returns (psi, report).

    phi must be an arity-2 cocycle, homogeneous for the combined grading,
    with symmetric classical limit; `check_solvability_preconditions`
    checks that with witnesses, and a target that violates it raises
    ConsistencyError here.  The returned identity is re-verified before
    returning in every case.
    """
    if phi.arity != 2:
        raise ValueError("solver expects an arity-2 target")
    n, K = phi.n, phi.K
    report = SolveReport()
    if phi.is_zero():
        return MultiDiffCochain.zero(n, K, 1), report
    degrees = phi.degrees()
    if len(degrees) != 1:
        raise ValueError(f"target is not homogeneous: degrees {sorted(degrees)}")
    degree = degrees.pop()
    report.degree = degree

    psi = MultiDiffCochain.zero(n, K, 1)
    residual = phi
    for a in range(degree + 1):
        part = _level(residual, a)
        if part.is_zero():
            continue
        antisym = alt(part)
        if not antisym.is_zero():
            term = _potential_term(antisym, a)
            report.potential_levels.append(a)
            psi = psi + term
            residual = residual - coboundary(term, deformed=True)
            part = _level(residual, a)
        term = _polarized_term(part)
        psi = psi + term
        residual = residual - coboundary(term, deformed=True)

    if coboundary(psi, deformed=True) != phi:
        raise ConsistencyError("solver certificate failed: d(psi) != phi")
    return psi, report
