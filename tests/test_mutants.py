"""Every certificate is load-bearing: a table of planted defects.

Each row monkeypatches one defect into the pipeline and runs a shipped
scenario in-process.  The run must exit 1, and the first failing command
must carry the message of the certificate that catches the defect.  A
row needs a scenario whose bracket can show its defect: dropping Lap
from E^-1 leaves linear-poisson-2d passing at its sound order 1, so that
row runs on moyal-r2-delta only.
"""

import json
from fractions import Fraction

import pytest

import dqw.cochain
import dqw.functionals
import dqw.taubuild
from dqw.cochain import MultiDiffCochain
from dqw.rationals import I
from dqw.scenario import load_scenario, run_scenario
from dqw.terms import unit, zeros

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
    _wrap_stage(monkeypatch, lambda t, k, K: MultiDiffCochain.zero(t.n, K, 1) if k == 2 else t)


def _non_hermitian_tau_top(monkeypatch):
    # i lam^K D_1 is a deformed cocycle of degree K and anti-Hermitian, so
    # only the Hermiticity certificate sees it in the top component
    def change(t, k, K):
        if k != K:
            return t
        z = zeros(t.n)
        return t + MultiDiffCochain(t.n, K, 1, {(K, z, (unit(t.n, 0),), z): I})
    _wrap_stage(monkeypatch, change)


def _flipped_pairing(monkeypatch):
    propagate = dqw.cochain.propagate

    def flipped(left, right, pairing, dq, join, K):
        (u, v, w), *rest = pairing
        return propagate(left, right, ((u, v, -w), *rest), dq, join, K)
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
    monkeypatch.setattr(dqw.functionals, "exp_laplace_exact", lambda x, sign: x)


def _unpatched(monkeypatch):
    """perturbed-c2 ships its defect, a perturbed C_2, in the scenario."""


# (mutant, scenario, failing op, text in that command's detail)
MUTANTS = [
    (_half_solution, "moyal-r2-delta", "build-tau",
     "error check failed in degree 1 at stage 1"),
    (_zero_tau_2, "moyal-r2-delta", "build-tau",
     "stage-3 term: target is not a cocycle; witness arguments"),
    (_unpatched, "perturbed-c2", "validate", '"name": "associativity", "ok": false'),
    (_non_hermitian_tau_top, "moyal-r2-delta", "build-tau",
     "component 4 is not Hermitian after build"),
    (_flipped_pairing, "moyal-r2-delta", "build-tau",
     "stage-2 term: target is not a cocycle; witness arguments"),
    (_flipped_pairing, "linear-poisson-2d", "build-tau",
     "stage-2 term: target is not a cocycle; witness arguments"),
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
