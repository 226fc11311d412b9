import importlib.util
import json
import random
import sys
from fractions import Fraction

import pytest

from dqw import cobsolver, cochain, starspec, taubuild
from dqw.cobsolver import CocyclePrecondition
from dqw.cochain import (MultiDiffCochain, coboundary, identity_cochain,
                         plug_constant)
from dqw.qpoly import QPolynomial, group_terms
from dqw.rationals import GaussianRational, I
from dqw.cli import build_star_product, build_tau_map, run_scenario
from dqw.scenario import Scenario, load_scenario, random_lambda_poly, read_star_product_spec
from dqw.starspec import make_constant_theta_star, perturb_cochain, star_apply, validate_star
from dqw.taubuild import (BuildAborted, ClosedFormTau, TauMap, build_tau,
                          check_poisson_realization, compute_Rk,
                          epsilon_cochain)
from dqw.terms import exponents, shift, zeros
from dqw.welement import LambdaPoly, WElement
from dqw.weyl import ConsistencyError

from conftest import SCENARIO_DIR
from oracles import canonical_bracket, poisson_bracket, realization_per_pair, weyl_product
from strategies import coordinate, element, gr, momentum, monomial, series

N = 2
ZERO_IDX = (0, 0)
ONE = QPolynomial.constant(N, 1)


def lp(poly, K=4):
    return series(poly, K)


class TestComputeRk:
    def test_stage_one_constant_theta(self, moyal_r2):
        taus = [identity_cochain(N, 4)]
        r1 = compute_Rk(moyal_r2, taus, 1)
        ih = gr(0, Fraction(1, 2))
        expect = MultiDiffCochain(N, 4, 2, {
            (1, ZERO_IDX, ((1, 0), (0, 1))): ONE.scale(ih),
            (1, ZERO_IDX, ((0, 1), (1, 0))): ONE.scale(-ih),
        })
        assert r1 == expect
        assert r1.classical_limit().is_zero()

    def test_zero_poisson_all_stages_vanish(self, zero_star):
        taus = [identity_cochain(N, 3),
                MultiDiffCochain(N, 3, 1),
                MultiDiffCochain(N, 3, 1)]
        for k in (1, 2):
            assert compute_Rk(zero_star, taus, k).is_zero()

    def test_stage_term_is_cocycle(self, moyal_r2, tau_moyal_r2):
        r2 = compute_Rk(moyal_r2, list(tau_moyal_r2.components[:2]), 2)
        assert coboundary(r2, True).is_zero()
        assert r2.is_homogeneous(2)

    def test_non_cocycle_stage_term_aborts_with_witness(self):
        # the perturbed product is not associative at order 3, so the
        # build, which does not validate, meets a stage-3 term that is not
        # a cocycle
        data = json.loads((SCENARIO_DIR / "perturbed-c2.json").read_text())
        spec = read_star_product_spec("star_product.inline",
                                      data["star_product"]["inline"], data["n"])
        with pytest.raises(BuildAborted,
                           match="^stage-3 term: target is not a cocycle; "
                                 "witness arguments") as exc:
            build_tau(spec, 4)
        assert isinstance(exc.value.__cause__, CocyclePrecondition)


class TestBuild:
    def test_stated_stage_one_candidate_is_valid(self, moyal_r2):
        taus = [identity_cochain(N, 4)]
        r1 = compute_Rk(moyal_r2, taus, 1)
        cand = MultiDiffCochain(N, 4, 1, {
            (0, (1, 0), ((0, 1),)): ONE.scale(Fraction(1, 2)),
            (0, (0, 1), ((1, 0),)): ONE.scale(Fraction(-1, 2)),
        })
        assert coboundary(cand, True) == r1
        assert cand.involution() == cand
        eps = epsilon_cochain(moyal_r2, taus + [cand], 1)
        assert eps.component(0).is_zero() and eps.component(1).is_zero()

    def test_constant_theta_build(self, moyal_r2, tau_moyal_r2):
        tau = tau_moyal_r2
        assert tau.hermitian
        for k, comp in enumerate(tau.components):
            if not comp.is_zero():
                assert comp.is_homogeneous(k)
            assert comp.involution() == comp
            if k >= 1:
                assert plug_constant(comp, 0).is_zero()
        eps = epsilon_cochain(moyal_r2, list(tau.components), 4)
        for d in range(5):
            assert eps.component(d).is_zero()

    def test_zero_poisson_build_is_plain_embedding(self, zero_star):
        tau, report = build_tau(zero_star, 3)
        assert tau.components[0] == identity_cochain(N, 3)
        assert all(c.is_zero() for c in tau.components[1:])

    def test_linear_poisson_build(self, linear_2d, tau_linear):
        eps = epsilon_cochain(linear_2d, list(tau_linear.components), 3)
        for d in range(4):
            assert eps.component(d).is_zero()
        for k, comp in enumerate(tau_linear.components):
            assert comp.involution() == comp
            if not comp.is_zero():
                assert comp.is_homogeneous(k)

    def test_determinism(self, moyal_r2, tau_moyal_r2):
        again, report = build_tau(moyal_r2, 4)
        assert again == tau_moyal_r2

    def test_epsilon_composes_only_surviving_terms(self, moyal_r2, tau_moyal_r2,
                                                   monkeypatch):
        """No term of a composition with C_r lands above degree 4 once
        shifted by lam^r, so only the terms of tau that reach the checked
        degrees are composed."""
        orders = {moyal_r2.cochain(r).retruncate(4): r for r in range(1, moyal_r2.order + 1)}
        landed = []
        compose = taubuild.compose_slot

        def recorded(phi, slot, inner):
            out = compose(phi, slot, inner)
            r = orders.get(inner)
            if r is not None:
                landed.extend(a + sum(idx) + r for (a, idx, _j, _e) in out.terms)
            return out

        monkeypatch.setattr(taubuild, "compose_slot", recorded)
        eps = epsilon_cochain(moyal_r2, list(tau_moyal_r2.components), 4)
        assert eps.is_zero()
        assert landed and max(landed) == 4

    def test_order_zero_build(self, zero_star):
        tau, _ = build_tau(zero_star, 0)
        assert tau.components == (identity_cochain(N, 0),)

    def test_rejects_order_beyond_spec(self, moyal_r2):
        from dqw.starspec import InvalidStarProduct
        with pytest.raises(InvalidStarProduct):
            build_tau(moyal_r2, 7)

    def test_injectivity_witness(self, tau_moyal_r2):
        # the momentum-free classical part is exactly the plain embedding
        for k, comp in enumerate(tau_moyal_r2.components):
            for (a, idx, _j, _e) in comp.terms:
                if k >= 1:
                    assert (a, idx) != (0, ZERO_IDX)


def _bench_n4_spec(seed=5, K=4):
    """The seeded n = 4 constant bracket of the build-tau benchmark."""
    path = SCENARIO_DIR.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    theta = workloads.moyal_n4_scenario(seed)["star_product"]["theta"]
    return make_constant_theta_star([[Fraction(x) for x in row] for row in theta], K)


class TestStageIdentity:
    """The algebra behind the one-degree stage check: adding the
    homogeneous tau_k leaves the error below degree k unchanged, and its
    degree-k component is R_k - d(tau_k), whatever tau_k is."""

    def _check_stages(self, spec, taus):
        K = len(taus) - 1
        for k in range(1, K + 1):
            rk = compute_Rk(spec, taus[:k], k)
            # the built component, no component, and the retired -1 sign
            for cand in (taus[k], MultiDiffCochain(spec.n, K, 1), -taus[k]):
                eps = epsilon_cochain(spec, taus[:k] + [cand], k)
                for d in range(k):
                    assert eps.component(d).is_zero(), (k, d)
                expect = rk - coboundary(cand, deformed=True)
                assert eps.component(k) == expect.retruncate(k), k
            assert coboundary(taus[k], deformed=True) == rk

    def test_moyal_r2(self, moyal_r2, tau_moyal_r2):
        self._check_stages(moyal_r2, list(tau_moyal_r2.components))

    def test_linear_2d(self, linear_2d, tau_linear):
        self._check_stages(linear_2d, list(tau_linear.components))

    def test_moyal_r3_rank2(self, moyal_r3_rank2, tau_moyal_r3):
        self._check_stages(moyal_r3_rank2, list(tau_moyal_r3.components))

    def test_bench_n4_bracket(self):
        spec = _bench_n4_spec()
        tau, report = build_tau(spec, 4)
        assert all(s.solver is not None for s in report.stages)
        self._check_stages(spec, list(tau.components))


class TestStageCheckFailure:
    """A stage component that does not solve d(tau_k) = R_k is caught by
    the degree-k check of its own stage."""

    def _patch(self, monkeypatch, change):
        real = taubuild.solve_coboundary

        def fake(phi):
            psi, rep = real(phi)
            (k,) = phi.degrees()
            return change(psi, k), rep

        monkeypatch.setattr(taubuild, "solve_coboundary", fake)

    def test_negated_solution(self, moyal_r2, monkeypatch):
        self._patch(monkeypatch, lambda psi, k: -psi)
        with pytest.raises(ConsistencyError,
                           match="error check failed in degree 1 at stage 1$"):
            build_tau(moyal_r2, 4)

    @pytest.mark.parametrize("stage", [1, 2, 3, 4])
    def test_perturbed_solution(self, moyal_r2, monkeypatch, stage):
        # lam^k D_1 D_1 is real, kills constants and is not a cocycle
        bump = MultiDiffCochain(N, 4, 1, {(stage, ZERO_IDX, ((2, 0),)): ONE})
        assert not coboundary(bump, deformed=True).is_zero()
        self._patch(monkeypatch,
                    lambda psi, k: psi + bump if k == stage else psi)
        with pytest.raises(ConsistencyError,
                           match=f"error check failed in degree {stage} "
                                 f"at stage {stage}$"):
            build_tau(moyal_r2, 4)


class TestStageFailurePath:
    """The solvability preconditions of R_k run only when a stage fails,
    at each of its failure exits, and their witness wins over the exit's
    own error."""

    def _count_preconditions(self, monkeypatch, witness=None):
        """Record the targets the preconditions see; raise a witness for
        them when one is given."""
        seen = []
        real = taubuild.check_solvability_preconditions

        def checked(phi):
            seen.append(phi)
            if witness is not None:
                raise CocyclePrecondition(witness)
            real(phi)

        monkeypatch.setattr(taubuild, "check_solvability_preconditions", checked)
        return seen

    def _fail_at(self, monkeypatch, exit_name):
        """Make stage 1 of the moyal_r2 build fail at one exit; returns the
        pattern of that exit's own error."""
        if exit_name == "hermitian":
            real = taubuild.compute_Rk
            monkeypatch.setattr(taubuild, "compute_Rk",
                                lambda spec, taus, k: real(spec, taus, k).scale(I))
            return BuildAborted, "^stage-1 term is not Hermitian$"
        if exit_name == "solver":
            def refused(phi):
                raise ConsistencyError("solver certificate failed: d(psi) != phi")
            monkeypatch.setattr(taubuild, "solve_coboundary", refused)
            return ConsistencyError, "^solver certificate failed"
        real_solve = taubuild.solve_coboundary

        def negated(phi):
            psi, rep = real_solve(phi)
            return -psi, rep
        monkeypatch.setattr(taubuild, "solve_coboundary", negated)
        return ConsistencyError, "^error check failed in degree 1 at stage 1$"

    def test_passing_build_never_runs_them(self, moyal_r2, linear_2d, monkeypatch):
        seen = self._count_preconditions(monkeypatch, witness="unexpected")
        build_tau(moyal_r2, 4)
        build_tau(linear_2d, 3)
        build_tau(_bench_n4_spec(), 4)
        assert seen == []

    @pytest.mark.parametrize("exit_name", ["hermitian", "solver", "certificate"])
    def test_witness_runs_first(self, moyal_r2, monkeypatch, exit_name):
        self._fail_at(monkeypatch, exit_name)
        seen = self._count_preconditions(monkeypatch, witness="witness W")
        with pytest.raises(BuildAborted, match="^stage-1 term: witness W$") as exc:
            build_tau(moyal_r2, 4)
        assert isinstance(exc.value.__cause__, CocyclePrecondition)
        assert len(seen) == 1 and seen[0].is_homogeneous(1)

    @pytest.mark.parametrize("exit_name", ["hermitian", "solver", "certificate"])
    def test_original_error_when_preconditions_hold(self, moyal_r2, monkeypatch,
                                                    exit_name):
        kind, pattern = self._fail_at(monkeypatch, exit_name)
        seen = self._count_preconditions(monkeypatch)
        with pytest.raises(kind, match=pattern):
            build_tau(moyal_r2, 4)
        assert len(seen) == 1

    def test_wrong_solution_on_valid_product(self, moyal_r2, monkeypatch):
        # the solver certified its own psi, not the cochain it hands back,
        # so the stage recomputes d(tau_1); the real preconditions pass
        self._fail_at(monkeypatch, "certificate")
        seen = self._count_preconditions(monkeypatch)
        with pytest.raises(ConsistencyError,
                           match="^error check failed in degree 1 at stage 1$"):
            build_tau(moyal_r2, 4)
        assert seen == [compute_Rk(moyal_r2, [identity_cochain(N, 4)], 1)]

    def test_certified_stage_computes_no_second_coboundary(self, moyal_r2,
                                                           monkeypatch):
        calls = []
        real = taubuild.coboundary

        def counted(phi, deformed=True):
            calls.append(phi)
            return real(phi, deformed)

        monkeypatch.setattr(taubuild, "coboundary", counted)
        build_tau(moyal_r2, 4)
        assert calls == []


def _shipped_builds():
    """(name, spec, tau, K) for every shipped scenario that builds tau."""
    out = []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        ops = [c if isinstance(c, str) else c["op"] for c in data.get("commands", ())]
        if "build-tau" not in ops:
            continue
        scenario = load_scenario(str(path))
        spec = build_star_product(scenario)
        if not validate_star(spec, scenario.K).ok:
            continue
        tau, _ = build_tau_map(scenario, spec)
        out.append((scenario.name, spec, tau, scenario.K))
    return out


class TestTrustedKernelOutput:
    """The kernels assemble their results without the validating
    constructors; on the shipped builds every such result is one the
    constructors would have produced: no zero stored, no term above the
    truncation order, no malformed key."""

    def test_results_survive_validation(self, monkeypatch):
        results = []

        def recorded(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                results.append(out)
                return out
            return wrapper

        # the cochain kernels and solvers assemble trusted maps directly
        for module in (cochain, cobsolver, taubuild, starspec):
            for name in ("compose_slot", "coboundary", "cochain_weyl_product",
                         "solve_classical_coboundary", "solve_coboundary"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, recorded(getattr(module, name)))
        # the element kernels assemble through _trusted
        trusted = WElement._trusted.__func__
        monkeypatch.setattr(WElement, "_trusted", classmethod(recorded(trusted)))
        for _name, spec, tau, K in _shipped_builds():
            assert check_poisson_realization(tau, spec, K=K).ok
            x = [tau.apply(series(coordinate(tau.n, k), tau.K))
                 for k in range(tau.n)]
            weyl_product(x[0], x[-1])
        # solve_coboundary returns (psi, report), an unsolvable classical
        # target None
        results = [r[0] if type(r) is tuple else r for r in results if r is not None]
        kinds = {type(r) for r in results}
        assert kinds == {MultiDiffCochain, WElement}
        assert len(results) > 100
        for r in results:
            _assert_validated(r)


def _nonnegative_indices(indices):
    return all(type(e) is int and e >= 0 for j in indices for e in j)


def _assert_validated(x):
    """x equals its rebuild through the validating constructors, and its
    keys and coefficients are well formed."""
    rebuilt = type(x)(*x._shape(), dict(x.terms))
    assert rebuilt == x
    for key, c in x.terms.items():
        assert type(c) is GaussianRational and c
        if isinstance(x, MultiDiffCochain):
            a, idx, jvec, exp = key
            assert len(jvec) == x.arity
        else:
            (a, idx, exp), jvec = key, ()
        assert a >= 0 and a + sum(idx) <= x.K
        assert all(len(j) == x.n for j in (idx, exp) + jvec)
        assert _nonnegative_indices((idx, exp) + jvec)


class TestApply:
    def test_plain_embedding_case(self, zero_star):
        tau, _ = build_tau(zero_star, 3)
        f = lp(monomial(N, (1, 1)), K=3)
        out = tau.apply(f)
        assert out == element(monomial(N, (1, 1)), 3)

    def test_homomorphism_identity_on_samples(self, moyal_r2, tau_moyal_r2):
        rng = random.Random(5)
        for _ in range(10):
            fp = monomial(N, (rng.randint(0, 2), rng.randint(0, 2)), gr(rng.randint(-3, 3)))
            gp = monomial(N, (rng.randint(0, 2), rng.randint(0, 2)), gr(1, rng.randint(-2, 2)))
            f, g = lp(fp), lp(gp)
            lhs = tau_moyal_r2.apply(star_apply(moyal_r2, f, g))
            rhs = weyl_product(tau_moyal_r2.apply(f), tau_moyal_r2.apply(g))
            assert lhs == rhs

    def test_conjugation_commutes_for_hermitian_build(self, tau_moyal_r2):
        f = lp(monomial(N, (2, 1), gr(1, 3)))
        assert tau_moyal_r2.apply(f.conjugate()) == \
            tau_moyal_r2.apply(f).conjugate()


def _substitution_reference(theta, f: LambdaPoly, K: int | None = None) -> WElement:
    """f(q^i - (1/2) sum_j theta^{ij} p_j) by products of the coordinate
    images, computed with nothing dropped and then truncated at K (not at
    all when K is None)."""
    n = len(theta)
    KK = max([K or 0] + [r + sum(e) for r, e in f.terms])
    images = []
    for i in range(n):
        img = element(coordinate(n, i), KK)
        for j in range(n):
            if theta[i][j]:
                img = img - momentum(n, KK, j).scale(Fraction(theta[i][j]) / 2)
        images.append(img)
    out = WElement(n, KK)
    for (r, exp), c in f.terms.items():
        term = WElement(n, KK, {(r, (0,) * n, (0,) * n): c})
        for i, e in enumerate(exp):
            for _ in range(e):
                term = term * images[i]
        out = out + term
    return out if K is None else WElement(n, K, out.terms)


def seeded_theta(rng, n):
    theta = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            theta[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            theta[j][i] = -theta[i][j]
    return theta


class TestClosedForm:
    def test_coordinate_images(self, fixture_tau_r2):
        f = lp(coordinate(N, 0))
        out = fixture_tau_r2.apply(f)
        K = fixture_tau_r2.K
        expect = element(coordinate(N, 0), K) - momentum(N, K, 1).scale(Fraction(1, 2))
        assert out == expect

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_components_match_the_substitution(self, n):
        rng = random.Random(40 + n)
        for K in range(0, 6):
            theta = seeded_theta(rng, n)
            tau = ClosedFormTau(theta, K)
            assert tau.hermitian and len(tau.components) == K + 1
            for _ in range(4):
                f = random_lambda_poly(rng, n, K, 3, 4, True)
                assert tau.apply(f) == _substitution_reference(theta, f, K)

    def test_apply_takes_no_derivative_above_the_argument(self, monkeypatch):
        """D^j of an argument is asked for only when j <= its componentwise
        top exponent; every other term of the map vanishes on it."""
        theta = [[0, 1], [-1, 0]]
        tau = ClosedFormTau(theta, 8)
        f = lp(monomial(N, (1, 1)) + monomial(N, (2, 0)), 8)
        derivative = LambdaPoly.derivative

        def checked(series, j):
            top = tuple(map(max, zip(*(e for _r, e in series.terms))))
            assert all(x <= t for x, t in zip(j, top)), f"D^{j} of {series}"
            return derivative(series, j)

        monkeypatch.setattr(LambdaPoly, "derivative", checked)
        assert tau.apply(f) == _substitution_reference(theta, f, 8)

    def test_rejects_non_antisymmetric_theta(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            ClosedFormTau([[0, 1], [1, 0]], 2)

    def test_route_runs_the_final_error_check(self):
        """C_2 shifted by the classical coboundary of D_1^2 gives a product
        that validates (Hermitian, associative, unital) and has the same
        bracket matrix, but the substitution map is not multiplicative
        for it: the closed-form route fails build-tau like the solver's."""
        spec = make_constant_theta_star([[0, 1], [-1, 0]], 2)
        z = zeros(2)
        d1d1 = MultiDiffCochain(2, 2, 1, {(0, z, (shift(z, 0, 2),), z): 1})
        spec = perturb_cochain(spec, 2, coboundary(d1d1, deformed=False))
        scenario = Scenario.from_json({
            "name": "closed-form-coboundary", "n": 2, "K": 2,
            "star_product": {"inline": spec.to_json()}, "tau": {"source": "closed_form"},
            "functional": {"atoms": [{"point": ["0", "0"], "vector": ["1"]}]},
            "tests": {"random": {"seed": 1, "count": 3}}})
        report, code = run_scenario(scenario)
        assert code == 1
        assert [(c["op"], c["outcome"]) for c in report["commands"]] == \
            [("validate", "pass"), ("build-tau", "fail")]
        assert report["commands"][1]["detail"] == {
            "error": "final error check failed in degree 2"}

    def test_homomorphism(self, moyal_r2, fixture_tau_r2):
        f = lp(monomial(N, (1, 1)))
        g = lp(monomial(N, (0, 2), gr(0, 1)))
        lhs = fixture_tau_r2.apply(star_apply(moyal_r2, f, g))
        rhs = weyl_product(fixture_tau_r2.apply(f), fixture_tau_r2.apply(g))
        assert lhs == rhs


class TestPoissonRealization:
    def test_fixture_brackets(self, moyal_r2, fixture_tau_r2):
        report = check_poisson_realization(fixture_tau_r2, moyal_r2, K=4)
        assert report.ok

    def test_built_tau(self, moyal_r2, tau_moyal_r2):
        assert check_poisson_realization(tau_moyal_r2, moyal_r2).ok

    def test_zero_poisson(self, zero_star):
        tau, _ = build_tau(zero_star, 3)
        assert check_poisson_realization(tau, zero_star).ok

    def test_corrupted_component_reported(self, moyal_r2, tau_moyal_r2):
        comps = list(tau_moyal_r2.components)
        comps[1] = comps[1] + MultiDiffCochain(N, 4, 1, {
            (0, (1, 0), ((1, 0),)): ONE})
        broken = TauMap(N, 4, comps, hermitian=False)
        report = check_poisson_realization(broken, moyal_r2)
        assert not report.ok
        assert report.violation == _first_ordered_violation(broken, moyal_r2)

    def test_unordered_pairs_counted(self, moyal_r2, tau_moyal_r2, moyal_r3_rank2,
                                     tau_moyal_r3):
        # 5 basis monomials of degree 1..2 at n = 2, 9 at n = 3
        assert check_poisson_realization(tau_moyal_r2, moyal_r2).checked_pairs == 10
        assert check_poisson_realization(
            tau_moyal_r3, moyal_r3_rank2).checked_pairs == 36


    def test_matches_per_pair_oracle_on_shipped_builds(self):
        builds = _shipped_builds()
        assert len(builds) >= 5
        for name, spec, tau, K in builds:
            assert check_poisson_realization(tau, spec, K=K) == \
                realization_per_pair(tau, spec, K=K), name

    def test_matches_per_pair_oracle_on_bench_n4(self):
        spec = _bench_n4_spec()
        tau, _ = build_tau(spec, 4)
        report = check_poisson_realization(tau, spec)
        assert report.ok and report.checked_pairs == 91
        assert report == realization_per_pair(tau, spec)

    @pytest.mark.parametrize("which", ["moyal_r2", "linear_2d", "bench_n4"])
    def test_first_violation_matches_per_pair_oracle(self, which, request):
        if which == "bench_n4":
            spec = _bench_n4_spec()
            tau, _ = build_tau(spec, 4)
        else:
            spec = request.getfixturevalue(which)
            tau = request.getfixturevalue(
                {"moyal_r2": "tau_moyal_r2", "linear_2d": "tau_linear"}[which])
        comps = list(tau.components)
        comps[1] = -comps[1]
        broken = TauMap(tau.n, tau.K, comps, hermitian=tau.hermitian)
        report = check_poisson_realization(broken, spec)
        assert not report.ok
        assert report == realization_per_pair(broken, spec)
        assert report.violation == _first_ordered_violation(broken, spec)


def _first_ordered_violation(tau, spec, max_q_degree=2):
    """The realization check over every ordered pair, diagonal included:
    the violation text of the first failing pair, or None."""
    cl = tau.classical_part()
    basis = [LambdaPoly(tau.n, 0, {(0, e): 1})
             for t in range(1, max_q_degree + 1) for e in exponents(tau.n, t)]
    for f in basis:
        for g in basis:
            diff = cl.evaluate([poisson_bracket(spec, f, g)]) - \
                canonical_bracket(cl.evaluate([f]), cl.evaluate([g]))
            bad = group_terms({key: c for key, c in diff.terms.items()
                               if key[0] == 0 and sum(key[1]) <= tau.K - 1}, tau.n)
            if bad:
                (_a, idx), poly = next(iter(bad.items()))
                return f"pair ({f}, {g}): p-exponent {idx} differs by {poly}"
    return None


class TestSerialization:
    def test_report_roundtrip(self, moyal_r2):
        tau, report = build_tau(moyal_r2, 4)
        data = report.to_json()
        assert json.loads(json.dumps(data)) == data
        assert [s["stage"] for s in data["stages"]] == [1, 2, 3, 4]
        assert all(set(s) == {"stage", "stage_term", "solver"} for s in data["stages"])
