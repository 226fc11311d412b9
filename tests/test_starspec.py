import json
from fractions import Fraction

import pytest

from dqw import starspec
from dqw.cochain import MultiDiffCochain
from dqw.qpoly import group_terms
from dqw.scenario import read_star_product_spec
from dqw.starspec import (InvalidStarProduct, StarProductSpec, make_constant_theta_star,
                          make_linear_poisson_2d_star, make_zero_star, perturb_cochain,
                          star_apply, validate_star)
from dqw.terms import unit, zeros
from dqw.welement import LambdaPoly

from oracles import associativity_two_sided, shift_lam
from strategies import coordinate, gr, monomial, series

N = 2


def lp(poly, K=4):
    return series(poly, K)


class TestConstantThetaGenerator:
    def test_first_cochain(self, moyal_r2):
        c1 = moyal_r2.cochain(1)
        ih = gr(0, Fraction(1, 2))
        expect = MultiDiffCochain(N, 4, 2, {
            (0, zeros(N), ((1, 0), (0, 1)), zeros(N)): ih,
            (0, zeros(N), ((0, 1), (1, 0)), zeros(N)): -ih,
        })
        assert c1 == expect

    def test_zero_matrix_gives_zero_cochains(self):
        spec = make_constant_theta_star([[0, 0], [0, 0]], K=3)
        assert all(spec.cochain(r).is_zero() for r in range(1, 4))

    def test_zero_star_is_the_zero_matrix_product(self):
        for n, K in ((1, 0), (2, 3), (3, 4)):
            zero = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
            assert make_zero_star(n, K) == StarProductSpec(
                n=n, order=K, hermitian=True, theta=zero,
                cochains=tuple(MultiDiffCochain(n, K, 2) for _ in range(K)))

    def test_validates_at_order_six(self, moyal_r2_k6):
        assert validate_star(moyal_r2_k6)["ok"]

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            make_constant_theta_star([[0, 1], [1, 0]], K=2)


class TestValidator:
    def test_moyal_passes(self, moyal_r2):
        report = validate_star(moyal_r2)
        assert report["ok"]
        names = {c["name"] for c in report["checks"]}
        assert names == {"associativity", "first_order_bracket", "hermitian",
                         "unitality"}

    def test_biderivation_perturbation_fails_at_order_three(self, moyal_r2):
        bump = MultiDiffCochain(N, 4, 2, {
            (0, zeros(N), ((1, 0), (1, 0)), zeros(N)): 1})
        bad = perturb_cochain(moyal_r2, 2, bump)
        report = validate_star(bad)
        assert not report["ok"]
        assoc = next(c for c in report["checks"] if c["name"] == "associativity")
        # a biderivation is a classical cocycle, so order 2 still holds
        assert assoc["order"] == 3
        assert assoc["witness"]

    def test_non_cocycle_perturbation_fails_at_order_two(self, moyal_r2):
        bump = MultiDiffCochain(N, 4, 2, {
            (0, zeros(N), ((2, 0), (1, 0)), zeros(N)): 1})
        bad = perturb_cochain(moyal_r2, 2, bump)
        report = validate_star(bad)
        assoc = next(c for c in report["checks"] if c["name"] == "associativity")
        assert assoc["order"] == 2

    def test_zero_star_passes(self, zero_star):
        assert validate_star(zero_star)["ok"]

    def test_unitality_violation_detected(self, moyal_r2):
        bump = MultiDiffCochain(N, 4, 2, {
            (0, zeros(N), ((0, 0), (1, 0)), zeros(N)): 1})
        bad = perturb_cochain(moyal_r2, 2, bump)
        report = validate_star(bad)
        unital = next(c for c in report["checks"] if c["name"] == "unitality")
        assert not unital["ok"] and unital["order"] == 2

    def test_hermitian_violation_detected(self, moyal_r2):
        bump = MultiDiffCochain(N, 4, 2, {
            (0, zeros(N), ((1, 0), (1, 0)), zeros(N)): gr(0, 1)})
        bad = perturb_cochain(moyal_r2, 2, bump)
        report = validate_star(bad)
        herm = next(c for c in report["checks"] if c["name"] == "hermitian")
        assert not herm["ok"]


class TestStarApply:
    def test_coordinates(self, moyal_r2):
        f = lp(coordinate(N, 0))
        g = lp(coordinate(N, 1))
        out = star_apply(moyal_r2, f, g)
        expect = f * g + LambdaPoly(N, 4, {(1, zeros(N)): gr(0, Fraction(1, 2))})
        assert out == expect

    def test_unital(self, moyal_r2):
        one = LambdaPoly.constant(N, 4, 1)
        f = lp(monomial(N, (2, 1)))
        assert star_apply(moyal_r2, one, f) == f
        assert star_apply(moyal_r2, f, one) == f

    def test_zero_poisson_is_pointwise(self, zero_star):
        f = lp(coordinate(N, 0), K=3)
        g = lp(monomial(N, (1, 2)), K=3)
        assert star_apply(zero_star, f, g) == f * g

    def test_lambda_bilinear(self, moyal_r2):
        f = lp(coordinate(N, 0))
        g = lp(coordinate(N, 1))
        assert star_apply(moyal_r2, shift_lam(f, 1), g) == \
            shift_lam(star_apply(moyal_r2, f, g), 1)

    def test_hermitian_compatibility(self, moyal_r2):
        f = lp(coordinate(N, 0) + coordinate(N, 1).scale(gr(0, 1)))
        g = lp(monomial(N, (1, 1), gr(1, 1)))
        lhs = star_apply(moyal_r2, f, g).conjugate()
        rhs = star_apply(moyal_r2, g.conjugate(), f.conjugate())
        assert lhs == rhs


class TestLinearPoisson:
    def test_validates(self, linear_2d):
        assert validate_star(linear_2d)["ok"]

    def test_bracket_matrix(self, linear_2d):
        # theta^{kl} is the coefficient of D_k (x) D_l
        entries = group_terms(linear_2d.bracket().terms, N)
        z = zeros(N)
        assert entries[(0, z, (unit(N, 0), unit(N, 1)))] == coordinate(N, 0)
        assert entries[(0, z, (unit(N, 1), unit(N, 0)))] == -coordinate(N, 0)

    def test_hermitian(self, linear_2d):
        for r in range(1, linear_2d.order + 1):
            assert linear_2d.cochain(r).involution() == linear_2d.cochain(r)

    def test_first_order_commutator(self, linear_2d):
        f = lp(coordinate(N, 0), K=3)
        g = lp(coordinate(N, 1), K=3)
        comm = star_apply(linear_2d, f, g) - star_apply(linear_2d, g, f)
        # [x, y] = i lam {x, y} = i lam x
        expect = LambdaPoly(N, 3, {(1, (1, 0)): gr(0, 1)})
        assert comm == expect


    @staticmethod
    def _patched_solve(monkeypatch, extra):
        """Make the classical solve return its solution plus `extra`."""
        solve = starspec.solve_classical_coboundary
        monkeypatch.setattr(starspec, "solve_classical_coboundary", lambda target: (
            solve(target) + MultiDiffCochain(N, target.K, 2, extra)))

    def test_non_hermitian_solution_gives_the_same_product(self, monkeypatch):
        # i D_1 (x) D_1 is an anti-Hermitian classical cocycle, so the
        # patched solution still solves the constraint and its Hermitian
        # part is the unpatched C_r
        expect = make_linear_poisson_2d_star(K=4)
        self._patched_solve(monkeypatch, {
            (0, zeros(N), ((1, 0), (1, 0)), zeros(N)): gr(0, 1)})
        assert make_linear_poisson_2d_star(K=4) == expect

    def test_hermitian_part_that_does_not_solve_is_refused(self, monkeypatch):
        # the Hermitian part of (1 + i) D^(2,0) (x) D^(2,0) is not a cocycle
        self._patched_solve(monkeypatch, {
            (0, zeros(N), ((2, 0), (2, 0)), zeros(N)): gr(1, 1)})
        with pytest.raises(InvalidStarProduct, match="order-2"):
            make_linear_poisson_2d_star(K=3)


# (derivative tuple, coefficient, Hermitian) of the C_2 bumps of TestValidator
BUMPS = {
    "biderivation": (((1, 0), (1, 0)), 1, True),
    "non_cocycle": (((2, 0), (1, 0)), 1, False),
    "unitality": (((0, 0), (1, 0)), 1, False),
    "imaginary": (((1, 0), (1, 0)), gr(0, 1), False),
}


class TestOneCompositionPerPair:
    """For a Hermitian product the validator composes each order pair
    once and reads the other side as its involution; otherwise it
    composes both.  Either way its associativity entry (ok, order,
    witness) is the two-sided reference's."""

    @staticmethod
    def _validate(monkeypatch, spec, K=None):
        slots = set()
        compose = starspec.compose_slot

        def recorded(phi, slot, inner):
            slots.add(slot)
            return compose(phi, slot, inner)

        monkeypatch.setattr(starspec, "compose_slot", recorded)
        report = validate_star(spec, K)
        monkeypatch.setattr(starspec, "compose_slot", compose)
        entry = next(c for c in report["checks"] if c["name"] == "associativity")
        assert entry == associativity_two_sided(spec, K)
        return entry, slots

    def test_moyal_at_order_six(self, monkeypatch, moyal_r2_k6):
        entry, slots = self._validate(monkeypatch, moyal_r2_k6)
        assert entry["ok"] and slots == {0}

    def test_linear_generator_at_order_five(self, monkeypatch):
        entry, slots = self._validate(monkeypatch, make_linear_poisson_2d_star(K=5))
        assert entry["ok"] and slots == {0}

    def test_unflagged_product_takes_both_sides(self, monkeypatch, moyal_r2):
        spec = StarProductSpec(n=N, order=4, hermitian=False,
                               cochains=moyal_r2.cochains, theta=moyal_r2.theta)
        entry, slots = self._validate(monkeypatch, spec, K=3)
        assert entry["ok"] and slots == {0, 1}

    @pytest.mark.parametrize("name", sorted(BUMPS))
    def test_perturbations(self, monkeypatch, moyal_r2, name):
        jvec, c, hermitian = BUMPS[name]
        bump = MultiDiffCochain(N, 4, 2, {(0, zeros(N), jvec, zeros(N)): c})
        bad = perturb_cochain(moyal_r2, 2, bump)
        entry, slots = self._validate(monkeypatch, bad)
        assert slots == ({0} if hermitian else {0, 1})
        if name in ("biderivation", "non_cocycle"):
            assert not entry["ok"] and entry["witness"]


class TestJsonSchema:
    def test_roundtrip_constant_theta(self, moyal_r2):
        blob = json.dumps(moyal_r2.to_json(), sort_keys=True)
        again = read_star_product_spec("inline", json.loads(blob), N)
        assert again.cochains == moyal_r2.cochains
        assert again.theta == moyal_r2.theta
        assert json.dumps(again.to_json(), sort_keys=True) == blob

    def test_roundtrip_linear(self, linear_2d):
        blob = json.dumps(linear_2d.to_json(), sort_keys=True)
        again = read_star_product_spec("inline", json.loads(blob), N)
        assert again.cochains == linear_2d.cochains
        assert again.theta is None

    def test_schema_shape(self, moyal_r2):
        data = moyal_r2.to_json()
        assert set(data) == {"n", "hermitian", "theta", "cochains"}
        entry = data["cochains"][0]
        assert set(entry) == {"lambda_power", "terms"}
        term = entry["terms"][0]
        assert set(term) == {"coeff_poly", "derivs"}
        assert len(term["derivs"]) == 2


def test_spec_rejects_momentum_content():
    bad = MultiDiffCochain(N, 2, 2, {
        (0, (1, 0), ((1, 0), (0, 1)), zeros(N)): 1})
    with pytest.raises(ValueError):
        StarProductSpec(n=N, order=2, hermitian=True,
                        cochains=(MultiDiffCochain(N, 2, 2), bad))
