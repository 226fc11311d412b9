"""Constructive coboundary solving by exact linear algebra.

Given a graded 2-cochain phi that is a cocycle for the deformed
differential and whose classical limit has vanishing antisymmetrization,
this module produces a 1-cochain psi with d(psi) = phi as an exact
normal-form identity.  The route is a graded linear solve:

* the unknown psi ranges over normal-form basis terms (a, I, J, E) of
  the same combined degree as phi, with the derivative order |J| bounded
  by the maximum order in phi plus a slack, escalating (doubling) on
  infeasibility up to a cap;
* the coboundary operator never touches the coefficient monomial q^E, so
  the system splits into independent blocks per monomial E drawn from
  phi's own coefficient support (enlarging the q-degree ansatz cannot
  help, which is why no q-degree escalation is performed);
* each block is solved over Q(i) by sparse exact elimination; free
  unknowns are set to zero after a column ordering by (lam-power,
  derivative order, p-exponent, derivative index), which makes the
  output deterministic and biased toward low-order solutions.

An optional preconditioner strips the target level by level in the
lam-power, solving classical-mode systems (which additionally split per
(a, I, E) and per total derivative order) while the antisymmetrized
obstruction of the current level vanishes; whatever remains goes to the
direct solve.  Every returned solution is re-verified symbolically
against the original target before being handed back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .cochain import MultiDiffCochain, alt, coboundary, find_witness
from .qpoly import QPolynomial
from .rationals import GaussianRational, ONE
from .terms import accumulate, exponents
from .weyl import ConsistencyError


class ConfigurationError(ValueError):
    """Malformed or inconsistent outside input: scenario content or the
    solver's environment variable."""


class CocyclePrecondition(ValueError):
    """The target is not solvable: precondition violated, with witness."""


class SolverInfeasible(RuntimeError):
    """No solution within the escalated ansatz bounds."""

    def __init__(self, message, bounds_tried):
        super().__init__(message)
        self.bounds_tried = bounds_tried


class SolverLimitExceeded(RuntimeError):
    """The assembled linear system exceeds the configured cell cap."""


DEFAULT_MAX_CELLS = 50_000_000


def _max_cells() -> int:
    raw = os.environ.get("DQW_MAX_SOLVER_CELLS")
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"DQW_MAX_SOLVER_CELLS must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class SolverConfig:
    deriv_slack: int = 2
    max_escalations: int = 2
    min_deriv_order: int = 0
    use_preconditioner: bool = True


@dataclass
class SolveReport:
    degree: int = 0
    stripped_levels: int = 0
    direct_blocks: list = field(default_factory=list)
    bounds_tried: list = field(default_factory=list)
    classical_blocks: int = 0

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "stripped_levels": self.stripped_levels,
            "direct_blocks": self.direct_blocks,
            "bounds_tried": self.bounds_tried,
            "classical_blocks": self.classical_blocks,
        }


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
    if len(row_list) * max(ncols, 1) > _max_cells():
        raise SolverLimitExceeded(
            f"system of {len(row_list)} x {ncols} exceeds DQW_MAX_SOLVER_CELLS"
        )

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
# direct deformed-mode solve
# ---------------------------------------------------------------------------

def _direct_solve(phi: MultiDiffCochain, degree: int, jmax: int,
                  min_deriv: int, report: SolveReport):
    """One attempt at the direct graded solve with derivative bound jmax.

    Returns the solution cochain or None when infeasible at this bound.
    """
    n, K = phi.n, phi.K
    shapes = []
    for a in range(min(degree, K) + 1):
        for idx in exponents(n, degree - a):
            shapes.append((a, tuple(idx)))
    jset = [j for t in range(jmax + 1) if t >= min_deriv for j in exponents(n, t)]

    # the coboundary image of a basis term does not depend on the
    # coefficient monomial, so expansions are shared across E blocks
    expansions = {}
    for (a, idx) in shapes:
        for j in jset:
            basis = MultiDiffCochain(
                n, K, 1, {(a, idx, (j,)): QPolynomial.constant(n, 1)}
            )
            image = coboundary(basis, deformed=True)
            expansions[(a, idx, j)] = [(key[:3], c2) for key, c2 in image.flat_terms()]

    monomials = sorted(phi.coefficient_monomials())
    flat_by_exp: dict = {}
    for (a, idx, jvec, exp), c in phi.flat_terms():
        flat_by_exp.setdefault(exp, {})[(a, idx, jvec)] = c

    col_order = sorted(expansions, key=lambda u: (u[0], sum(u[2]), u[1], u[2]))
    solution_flat: dict = {}
    for exp in monomials:
        rhs = flat_by_exp.get(exp)
        if not rhs:
            continue
        sol = solve_sparse_system(expansions, rhs, col_order)
        if sol is None:
            return None
        report.direct_blocks.append(
            {"monomial": list(exp), "cols": len(col_order), "rows": len(rhs)}
        )
        for (a, idx, j), c in sol.items():
            solution_flat[(a, idx, (j,), exp)] = c
    return MultiDiffCochain.from_flat(solution_flat, phi.n, phi.K, 1)


# ---------------------------------------------------------------------------
# public entry
# ---------------------------------------------------------------------------

def check_solvability_preconditions(phi: MultiDiffCochain):
    """Cocycle and symmetric-classical-part checks, with witnesses."""
    if phi.arity != 2:
        raise ValueError("solver expects an arity-2 target")
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


def solve_coboundary(phi: MultiDiffCochain, config: SolverConfig | None = None,
                     check_preconditions: bool = True):
    """Find psi with d(psi) = phi, exactly.  Returns (psi, report).

    phi must be an arity-2 cocycle, homogeneous for the combined grading,
    with symmetric classical limit.  The returned identity is re-verified
    before returning regardless of the route taken.
    """
    config = config or SolverConfig()
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

    if config.use_preconditioner:
        for level in range(degree + 1):
            if residual.is_zero():
                break
            part = MultiDiffCochain(
                n, K, 2,
                {k: p for k, p in residual.terms.items() if k[0] == level},
            )
            if part.is_zero():
                continue
            if not alt(part).is_zero():
                break  # antisymmetric class at this level: leave to direct solve
            partial = solve_classical_coboundary(part, normalized=config.min_deriv_order >= 1)
            if partial is None:
                break
            report.classical_blocks += 1
            report.stripped_levels = level + 1
            psi = psi + partial
            residual = residual - coboundary(partial, deformed=True)

    if not residual.is_zero():
        jmax = phi.max_deriv_order() + config.deriv_slack
        attempt = 0
        solved = None
        while True:
            report.bounds_tried.append(jmax)
            solved = _direct_solve(residual, degree, jmax, config.min_deriv_order, report)
            if solved is not None:
                break
            attempt += 1
            if attempt > config.max_escalations:
                raise SolverInfeasible(
                    "no solution within derivative-order bounds "
                    f"{report.bounds_tried}",
                    report.bounds_tried,
                )
            jmax *= 2
        psi = psi + solved

    if coboundary(psi, deformed=True) != phi:
        raise ConsistencyError("solver certificate failed: d(psi) != phi")
    return psi, report
