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
target.  The exact sparse elimination below serves the purely classical
arity-3 solve of `starspec.make_linear_poisson_2d_star`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cochain import MultiDiffCochain, alt, coboundary, find_witness
from .koszul import KoszulForm, axial_potential
from .qpoly import QPolynomial
from .rationals import GaussianRational, ONE
from .terms import accumulate, exponents
from .welement import _add_idx
from .weyl import ConsistencyError


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
# exact sparse elimination
# ---------------------------------------------------------------------------

def solve_sparse_system(columns, rhs, col_order):
    """Solve sum_c M[:, c] x_c = rhs over Q(i).

    columns: mapping col -> list of (row_key, coeff); rhs: mapping
    row_key -> coeff.  Returns a dict col -> coeff (free columns are
    zero) or None when inconsistent.
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
# classical-mode solve (splits into micro blocks)
# ---------------------------------------------------------------------------

def solve_classical_coboundary(target: MultiDiffCochain, normalized: bool = False):
    """Solve d0(psi) = target for psi of arity target.arity - 1.

    The classical coboundary preserves the key (a, I), the coefficient
    monomial and the total derivative order, so the system is a union of
    independent micro blocks.  Returns psi or None when some block is
    inconsistent (the obstruction is an antisymmetric class).
    """
    m = target.arity
    if m < 1:
        raise ValueError("target arity must be >= 1")
    n, K = target.n, target.K
    blocks: dict = {}
    for (a, idx, jvec, exp), c in target.flat_terms():
        t = sum(sum(j) for j in jvec)
        blocks.setdefault((a, idx, exp, t), {})[jvec] = c

    flat_solution: dict = {}
    for (a, idx, exp, t), rhs in sorted(blocks.items()):
        unknowns = [
            jv for jv in _deriv_vectors(n, m - 1, t)
            if not normalized or all(sum(j) >= 1 for j in jv)
        ]
        if not unknowns:
            return None
        columns = {}
        for jv in unknowns:
            basis = MultiDiffCochain(
                n, K, m - 1,
                {(a, idx, jv): QPolynomial.constant(n, 1)},
            )
            image = coboundary(basis, deformed=False)
            columns[jv] = [(key[:3], c2) for key, c2 in image.flat_terms()]
        rhs_map = {(a, idx, jv): c for jv, c in rhs.items()}
        order = sorted(unknowns, key=lambda jv: (max(sum(j) for j in jv) if jv else 0, jv))
        sol = solve_sparse_system(columns, rhs_map, order)
        if sol is None:
            return None
        for jv, c in sol.items():
            flat_solution[(a, idx, jv, exp)] = c
    return MultiDiffCochain.from_flat(flat_solution, n, K, m - 1)


def _deriv_vectors(n: int, slots: int, total: int):
    """All tuples of `slots` multi-indices with total order exactly `total`."""
    if slots == 0:
        return [()] if total == 0 else []
    out = []
    for head_total in range(total + 1):
        for head in exponents(n, head_total):
            for rest in _deriv_vectors(n, slots - 1, total - head_total):
                out.append((head,) + rest)
    return out


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
        (a - 1, idx, (tuple(1 if d == l else 0 for d in range(n)),)):
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


def solve_coboundary(phi: MultiDiffCochain, check_preconditions: bool = True):
    """Find psi with d(psi) = phi, exactly.  Returns (psi, report).

    phi must be an arity-2 cocycle, homogeneous for the combined grading,
    with symmetric classical limit; check_preconditions=False skips
    re-checking that for a caller that already has.  The returned
    identity is re-verified before returning in every case.
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
    if check_preconditions:
        check_solvability_preconditions(phi)

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
