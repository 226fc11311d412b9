"""Every certificate is load-bearing: a table of planted defects.

Each row monkeypatches one defect into the pipeline and runs a shipped
scenario in-process.  The run must exit 1, and the first failing command
must carry the message of the certificate that catches the defect.  A
row needs a scenario whose bracket can show its defect: dropping Lap
from E^-1, so that the deformed functional only sets the momenta to
zero, leaves linear-poisson-2d passing at its sound order 1, so that
row runs on moyal-r2-delta only.
"""

import json
from fractions import Fraction

import pytest

import dqw.cli
import dqw.cobsolver
import dqw.cochain
import dqw.functionals
import dqw.taubuild
from dqw.cochain import MultiDiffCochain
from dqw.rationals import I
from dqw.cli import run_scenario
from dqw.scenario import load_scenario
from dqw.starspec import perturb_cochain
from dqw.terms import shift, unit, zeros
from dqw.weyl import WEYL_PAIRING

from conftest import SCENARIO_DIR


def _half_solution(monkeypatch):
    solve = dqw.taubuild.solve_coboundary

    def half(rk):
        psi, report = solve(rk)
        return psi.scale(Fraction(1, 2)), report
    monkeypatch.setattr(dqw.taubuild, "solve_coboundary", half)


def _wrap_stage(monkeypatch, change):
    """Replace tau_k by change(tau_k, k, K) after each solved stage."""
    solve_stage = dqw.taubuild._solve_stage

    def stage(rk, k, hermitian):
        tau_k, report = solve_stage(rk, k, hermitian)
        return change(tau_k, k, rk.K), report
    monkeypatch.setattr(dqw.taubuild, "_solve_stage", stage)


def _zero_tau_2(monkeypatch):
    _wrap_stage(monkeypatch, lambda t, k, K: MultiDiffCochain(t.n, K, 1) if k == 2 else t)


def _non_hermitian_tau_top(monkeypatch):
    # i lam^K D_1 is a deformed cocycle of degree K and anti-Hermitian, so
    # only the Hermiticity certificate sees it in the top component
    def change(t, k, K):
        if k != K:
            return t
        z = zeros(t.n)
        return t + MultiDiffCochain(t.n, K, 1, {(K, z, (unit(t.n, 0),), z): I})
    _wrap_stage(monkeypatch, change)


def _non_cocycle_tau_top(monkeypatch):
    # lam^K D_1^2 is Hermitian and vanishes on constants, but its classical
    # coboundary -2 lam^K D_1 (x) D_1 is not zero; tau_K feeds no later
    # stage, so only the final all-degree error check sees it
    def change(t, k, K):
        if k != K:
            return t
        z = zeros(t.n)
        return t + MultiDiffCochain(t.n, K, 1, {(K, z, (shift(z, 0, 2),), z): 1})
    _wrap_stage(monkeypatch, change)


def _corrupted_polarization(monkeypatch):
    # D_1^2, lam- and p-free, added to every polarized term: the loop's
    # later levels do not see its coboundary, so only the solver's own
    # certificate d(psi) = phi catches it (a doubled term is caught
    # earlier, by the next level's potential check)
    polarized = dqw.cobsolver._polarized_term

    def corrupted(part):
        z = zeros(part.n)
        extra = MultiDiffCochain(part.n, part.K, 1, {(0, z, (shift(z, 0, 2),), z): 1})
        return polarized(part) + extra if part else polarized(part)
    monkeypatch.setattr(dqw.cobsolver, "_polarized_term", corrupted)


def _doubled_potential(monkeypatch):
    # twice the axial potential term: the level-a residual keeps minus
    # the antisymmetric part, which polarizes to zero, so only the
    # solver's certificate d(psi) = phi catches it
    potential = dqw.cobsolver._potential_term
    monkeypatch.setattr(dqw.cobsolver, "_potential_term",
                        lambda antisym, a: potential(antisym, a).scale(2))


def _wrap_generator(monkeypatch, change):
    """Replace each constant-bracket product by change(product)."""
    make = dqw.cli.make_constant_theta_star
    monkeypatch.setattr(dqw.cli, "make_constant_theta_star",
                        lambda theta, K: change(make(theta, K)))


def _transposed_bracket(monkeypatch):
    # the cochains stay right, so only the first-order bracket check sees
    # the stored bracket matrix -theta
    _wrap_generator(monkeypatch, lambda spec: spec._replace(theta=tuple(zip(*spec.theta))))


def _bump_top_cochain(monkeypatch, jvec, c):
    """Add c D^j1 (x) D^j2 to C_K.  The bump is a classical coboundary and
    associativity through K sees C_K only through its coboundary, so the
    product stays associative."""
    def bump(spec):
        z = zeros(spec.n)
        extra = MultiDiffCochain(spec.n, spec.order, 2, {(0, z, jvec(spec.n), z): c})
        return perturb_cochain(spec, spec.order, extra)
    _wrap_generator(monkeypatch, bump)


def _anti_hermitian_top(monkeypatch):
    # i D_1 (x) D_1 = d(-i D_1^2 / 2) is minus its own involution
    _bump_top_cochain(monkeypatch, lambda n: (unit(n, 0), unit(n, 0)), I)


def _non_unital_top(monkeypatch):
    # fg = d(id) is Hermitian, but does not vanish on constants
    _bump_top_cochain(monkeypatch, lambda n: (zeros(n), zeros(n)), 1)


def _flip(pairing):
    """The table with the sign of its first entry flipped; the empty
    table of the classical action has none."""
    if not pairing:
        return pairing
    (u, v, w), *rest = pairing
    return ((u, v, -w), *rest)


def _flipped_pairing(monkeypatch):
    # only the product that forms R_k flips; the coboundary keeps the q/p
    # convention, so the first target it forms is not a cocycle
    def flipped(phi, psi):
        flat = dqw.cochain.propagate(phi.terms.items(), psi.terms.items(),
                                     _flip(WEYL_PAIRING), dqw.cochain._cochain_dq,
                                     dqw.cochain._cochain_join, phi.K)
        return MultiDiffCochain._trusted((phi.n, phi.K, phi.arity + psi.arity), flat)
    monkeypatch.setattr(dqw.taubuild, "cochain_weyl_product", flipped)


def _flipped_cochain_pairing(monkeypatch):
    # every product in dqw.cochain flips, the coboundary's too; the flipped
    # convention is consistent, and the solver's closed form is not
    propagate = dqw.cochain.propagate

    def flipped(left, right, pairing, dq, join, K):
        return propagate(left, right, _flip(pairing), dq, join, K)
    monkeypatch.setattr(dqw.cochain, "propagate", flipped)


def _corrupted_realization(monkeypatch):
    classical_part = dqw.taubuild.TauMap.classical_part
    monkeypatch.setattr(dqw.taubuild.TauMap, "classical_part",
                        lambda self: classical_part(self).scale(2))


def _flipped_sigma(monkeypatch):
    resolve = dqw.functionals.resolve_fock_sign
    monkeypatch.setattr(dqw.functionals, "resolve_fock_sign",
                        lambda: {**resolve(), "sigma": -resolve()["sigma"]})


def _no_laplacian(monkeypatch):
    # at sign 0 the kernel is exp(0) = id followed by p = 0
    exp_laplace = dqw.functionals.exp_laplace_exact
    monkeypatch.setattr(dqw.functionals, "exp_laplace_exact",
                        lambda x, sign, K: exp_laplace(x, 0, K))


def _unpatched(monkeypatch):
    """perturbed-c2 ships its defect, a perturbed C_2, in the scenario."""


# (mutant, scenario, failing op, text in that command's detail)
MUTANTS = [
    (_half_solution, "moyal-r2-delta", "build-tau",
     "error check failed in degree 1 at stage 1"),
    (_zero_tau_2, "moyal-r2-delta", "build-tau",
     "stage-3 term: target is not a cocycle; witness arguments"),
    (_non_cocycle_tau_top, "moyal-r2-delta", "build-tau",
     "final error check failed in degree 4"),
    (_corrupted_polarization, "moyal-r2-delta", "build-tau",
     "solver certificate failed: d(psi) != phi"),
    (_doubled_potential, "moyal-r2-delta", "build-tau",
     "solver certificate failed: d(psi) != phi"),
    (_doubled_potential, "linear-poisson-2d", "build-tau",
     "solver certificate failed: d(psi) != phi"),
    (_unpatched, "perturbed-c2", "validate", '"name": "associativity", "ok": false'),
    (_transposed_bracket, "moyal-r2-delta", "validate",
     '"name": "first_order_bracket", "ok": false, "order": 1, "witness": "args ('),
    (_anti_hermitian_top, "moyal-r2-delta", "validate",
     '"name": "hermitian", "ok": false, "order": 4, "witness": "args ('),
    (_non_unital_top, "moyal-r2-delta", "validate",
     '"name": "unitality", "ok": false, "order": 4, "witness": "slot 0: args ('),
    (_non_hermitian_tau_top, "moyal-r2-delta", "build-tau",
     "component 4 is not Hermitian after build"),
    (_flipped_pairing, "moyal-r2-delta", "build-tau",
     "stage-2 term: target is not a cocycle; witness arguments"),
    (_flipped_pairing, "linear-poisson-2d", "build-tau",
     "stage-2 term: target is not a cocycle; witness arguments"),
    (_flipped_cochain_pairing, "moyal-r2-delta", "build-tau",
     "solver certificate failed: d(psi) != phi"),
    (_corrupted_realization, "moyal-r2-delta", "build-tau",
     '"poisson_realization": {"checked_pairs": 1, "ok": false, "violation": "pair ('),
    (_corrupted_realization, "linear-poisson-2d", "build-tau",
     '"poisson_realization": {"checked_pairs": 1, "ok": false, "violation": "pair ('),
    (_flipped_sigma, "moyal-r2-delta", "check-pos",
     '"aggregate": "fail", "expect": "nonnegative", "functional": {"K": 4, "kind": "deformed"'),
    (_flipped_sigma, "linear-poisson-2d", "check-pos",
     '"aggregate": "fail", "expect": "nonnegative", "functional": {"K": 3, "kind": "deformed"'),
    (_no_laplacian, "moyal-r2-delta", "check-pos",
     '"aggregate": "fail", "expect": "nonnegative", "functional": {"K": 4, "kind": "deformed"'),
]


@pytest.mark.parametrize("mutant, scenario, op, text", MUTANTS,
                         ids=[f"{m.__name__[1:]}-{s}" for m, s, _o, _t in MUTANTS])
def test_mutant_is_caught(monkeypatch, mutant, scenario, op, text):
    mutant(monkeypatch)
    report, code = run_scenario(load_scenario(str(SCENARIO_DIR / f"{scenario}.json")))
    assert code == 1
    failed = [c for c in report["commands"] if c["outcome"] == "fail"]
    assert failed[0]["op"] == op
    assert text in json.dumps(failed[0]["detail"], sort_keys=True)
