"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Tolerances are exact (all arithmetic is over Q(i)); runtime
targets are asserted where stated."""

import difflib
import itertools
import json
import pathlib
import random
import time
from fractions import Fraction

from dqw.cobsolver import solve_coboundary
from dqw.cochain import MultiDiffCochain, coboundary
from dqw.functionals import (DeformedFunctional, GluedFunctional, MatrixLambdaPoly,
                             StateFunctional, UndeformedExtension)
from dqw.qpoly import QPolynomial
from dqw.rationals import I
from dqw.cli import report_to_json_text, run_scenario, strip_timings
from dqw.scenario import load_scenario, random_lambda_poly
from dqw.starspec import star_apply
from dqw.taubuild import build_tau, check_poisson_realization, epsilon_cochain
from dqw.welement import LambdaPoly, SeriesSign, WElement

from conftest import SCENARIO_DIR, positivity_verdict
from oracles import (KoszulForm, MatrixWElement, check_sign_on_pair, d_p, degree_image,
                     exp_laplace, monomial_basis, poincare_homotopy, weyl_product,
                     wick_positivity_certificate)
from strategies import coordinate, element, gr, monomial, series

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {description}" +
          (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {description} {detail}"


def _qp_monomials(n, K, max_total):
    out = []
    for (a, pi, qe) in monomial_basis(n, max_total):
        if a == 0:
            out.append(WElement(n, K, {(0, pi, qe): 1}))
    return out


def test_criterion_01_weyl_product_correctness():
    t0 = time.perf_counter()
    n, K = 2, 6
    basis = _qp_monomials(n, K, 3)
    assert len(basis) == 35
    one = element(QPolynomial.constant(n, 1), K)
    for a in basis:
        assert weyl_product(one, a) == a
        assert weyl_product(a, one) == a
    products = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            ab = weyl_product(a, b)
            products[(i, j)] = ab
            assert ab.conjugate() == weyl_product(b.conjugate(), a.conjugate())
    for i in range(len(basis)):
        for j in range(len(basis)):
            left = products[(i, j)]
            for k, c in enumerate(basis):
                assert weyl_product(left, c) == \
                    weyl_product(basis[i], products[(j, k)])
    elapsed = time.perf_counter() - t0
    # sampled triples in n = 3
    rng = random.Random(101)
    basis3 = _qp_monomials(3, K, 3)
    for _ in range(60):
        a, b, c = (rng.choice(basis3) for _ in range(3))
        assert weyl_product(weyl_product(a, b), c) == \
            weyl_product(a, weyl_product(b, c))
        assert weyl_product(a, b).conjugate() == \
            weyl_product(b.conjugate(), a.conjugate())
    _report(1, "associativity, Hermitian property and unitality of the "
               "q/p-pairing product at K=6", elapsed < 30.0,
            f"n=2 exhaustive 35^3 triples, n=3 sampled, {elapsed:.1f}s")


def test_criterion_02_degree_derivation():
    n, K = 2, 5
    rng = random.Random(202)
    checked = 0
    for _ in range(200):
        a = _random_welement(rng, n, K)
        b = _random_welement(rng, n, K)
        lhs = degree_image(weyl_product(a, b))
        rhs = weyl_product(degree_image(a), b) + weyl_product(a, degree_image(b))
        assert lhs == rhs
        checked += 1
    _report(2, "grading operator is a derivation of the deformed product",
            checked == 200, f"{checked} seeded random pairs at K=5")


def _random_welement(rng, n, K, terms=4):
    data = {}
    for _ in range(terms):
        a = rng.randint(0, 2)
        idx = [0] * n
        for _ in range(rng.randint(0, 2)):
            idx[rng.randrange(n)] += 1
        if a + sum(idx) > K:
            continue
        exp = tuple(rng.randint(0, 2) for _ in range(n))
        key = (a, tuple(idx))
        poly = monomial(n, exp, gr(rng.randint(-3, 3), rng.randint(-3, 3)))
        data[key] = data[key] + poly if key in data else poly
    return WElement(n, K, data)


def test_criterion_03_product_equivalence_sign():
    K = 4
    results = {}
    t0 = time.perf_counter()
    for n in (1, 2):
        basis = [WElement(n, K, {(a, pi, qe): 1})
                 for (a, pi, qe) in monomial_basis(n, K)]
        passing = []
        for sign in (1, -1):
            ok = all(exp_laplace(x.conjugate(), sign, x.K) ==
                     exp_laplace(x, sign, x.K).conjugate() for x in basis)
            if ok:
                pairs = itertools.product(basis, repeat=2)
                ok = all(check_sign_on_pair(sign, a, b) for a, b in pairs)
            if ok:
                passing.append(sign)
        results[n] = passing
    elapsed = time.perf_counter() - t0
    ok = all(results[n] == [-1] for n in (1, 2))
    _report(3, "a unique sign makes exp(sigma lam Lap) intertwine the two "
               "products on the full basis through degree 4",
            ok, f"passing signs {results}, {elapsed:.1f}s")


def test_criterion_04_hochschild_layer():
    n, K = 2, 4
    rng = random.Random(404)

    def random_cochain(arity, homogeneous_degree=None):
        data = {}
        for _ in range(3):
            if homogeneous_degree is None:
                a = rng.randint(0, 2)
                idx = [0] * n
                for _ in range(rng.randint(0, 1)):
                    idx[rng.randrange(n)] += 1
                if a + sum(idx) > K:
                    continue
            else:
                a = rng.randint(0, homogeneous_degree)
                rest = homogeneous_degree - a
                idx = [0] * n
                for _ in range(rest):
                    idx[rng.randrange(n)] += 1
            jvec = tuple(tuple(rng.randint(0, 2) for _ in range(n))
                         for _ in range(arity))
            exp = tuple(rng.randint(0, 1) for _ in range(n))
            key = (a, tuple(idx), jvec)
            poly = monomial(n, exp, gr(rng.randint(-3, 3), rng.randint(-2, 2)))
            data[key] = data[key] + poly if key in data else poly
        return MultiDiffCochain(n, K, arity, data)

    for arity in (1, 2):
        for _ in range(10):
            phi = random_cochain(arity)
            assert coboundary(coboundary(phi, True), True).is_zero()
            assert coboundary(coboundary(phi, False), False).is_zero()
            assert coboundary(phi, True).classical_limit() == \
                coboundary(phi.classical_limit(), False)
            sign = 1 if (arity + 1) % 2 == 0 else -1
            lhs = coboundary(phi, True).involution()
            rhs = coboundary(phi.involution(), True)
            assert lhs == (rhs if sign == 1 else -rhs)

    for degree in range(1, n + 1):
        for _ in range(10):
            data = {}
            for _ in range(3):
                idx = tuple(rng.randint(0, 2) for _ in range(n))
                sel = tuple(sorted(rng.sample(range(n), degree)))
                exp = tuple(rng.randint(0, 1) for _ in range(n))
                key = (idx, sel)
                poly = monomial(n, exp, Fraction(rng.randint(-4, 4)))
                data[key] = data[key] + poly if key in data else poly
            w = KoszulForm(n, degree, data)
            lhs = d_p(poincare_homotopy(w))
            dw = d_p(w)
            if not dw.is_zero():
                lhs = lhs + poincare_homotopy(dw)
            assert lhs == w

    solved = 0
    attempts = 0
    while solved < 50:
        attempts += 1
        assert attempts < 400
        src = random_cochain(1, homogeneous_degree=rng.randint(0, 3))
        tgt = coboundary(src, True)
        if tgt.is_zero():
            continue
        psi, _ = solve_coboundary(tgt)
        assert coboundary(psi, True) == tgt
        solved += 1

    lam_solved = 0
    for _ in range(10):
        c = monomial(n, (rng.randint(0, 2), rng.randint(0, 2)), gr(rng.randint(1, 3)))
        phi = MultiDiffCochain(n, K, 2, {
            (1, (0, 0), ((1, 0), (0, 1))): c,
            (1, (0, 0), ((0, 1), (1, 0))): -c,
        })
        psi, _ = solve_coboundary(phi)
        assert coboundary(psi, True) == phi
        lam_solved += 1
    _report(4, "coboundary layer identities and constructive solves",
            solved == 50 and lam_solved == 10,
            f"{solved} round-trips, {lam_solved} bracket multiples")


def test_criterion_05_tau_construction(moyal_r2, moyal_r3_rank2, linear_2d):
    times = {}
    for label, spec, K in (("constant n=2", moyal_r2, 4),
                           ("constant n=3", moyal_r3_rank2, 4),
                           ("linear n=2", linear_2d, 3)):
        t0 = time.perf_counter()
        tau, report = build_tau(spec, K)
        times[label] = time.perf_counter() - t0
        assert times[label] < 300.0, f"{label} exceeded runtime target"
        eps = epsilon_cochain(spec, list(tau.components), K)
        for d in range(K + 1):
            assert eps.component(d).is_zero(), f"{label}: error at degree {d}"
        for k, comp in enumerate(tau.components):
            assert comp.involution() == comp, f"{label}: stage {k} not Hermitian"
            if not comp.is_zero():
                assert comp.is_homogeneous(k)
        assert check_poisson_realization(tau, spec, K=K).ok
    _report(5, "staged embedding builds with exact multiplicativity through K",
            True, ", ".join(f"{k}: {v:.1f}s" for k, v in times.items()))


def _counterexample(K=4):
    return series(
        coordinate(2, 0) + coordinate(2, 1).scale(I), K)


def test_criterion_06_counterexample(moyal_r2):
    delta = StateFunctional(2, 1, [((0, 0), (1,))])
    omega = UndeformedExtension(delta, 4)
    verdict = positivity_verdict(omega, moyal_r2, [_counterexample()])
    t = verdict.tests[0]
    ok = (t.coefficients == ["0", "-1"] and
          t.classification == SeriesSign.NEGATIVE)
    _report(6, "plain extension of the point functional fails positivity "
               "with coefficients (0, -1)", ok,
            f"got {t.coefficients}, {t.classification.value}")


def test_criterion_07_positivity_deformation(moyal_r2, tau_moyal_r2,
                                             fixture_tau_r2):
    K = 4
    delta = StateFunctional(2, 1, [((0, 0), (1,))])
    omega_fix = DeformedFunctional(delta, fixture_tau_r2, K)

    verdict = positivity_verdict(omega_fix, moyal_r2, [_counterexample()])
    t = verdict.tests[0]
    # exact pipeline value, forced by multiplicativity: tau maps
    # fbar * f = fbar f - lam to g~ g - lam with g = tau(f), and the
    # Laplacian correction of g~ g at the origin is 5/4, so the series
    # is (5/4 - 1) lam; cross-checked through the z/zbar route where the
    # lam coefficient is 2 sum_k |d_zbar^k g(0)|^2 = 1/4
    value_ok = (t.coefficients == ["0", "1/4"] and
                t.classification == SeriesSign.POSITIVE)

    delta2 = StateFunctional(
        2, 2, [((0, 0), (gr(1), gr(0, 1)))])
    functionals = {
        "fixture": {1: DeformedFunctional(delta, fixture_tau_r2, K),
                    2: DeformedFunctional(delta2, fixture_tau_r2, K)},
        "solver": {1: DeformedFunctional(delta, tau_moyal_r2, tau_moyal_r2.K),
                   2: DeformedFunctional(delta2, tau_moyal_r2, tau_moyal_r2.K)},
    }
    rng = random.Random(707)
    total = 0
    negatives = []
    for kind in ("fixture", "solver"):
        for N in (1, 2):
            omega = functionals[kind][N]
            tests = []
            for i in range(65 if N == 1 else 40):
                if N == 1:
                    tests.append(random_lambda_poly(rng, 2, K, 3, 3, True))
                else:
                    tests.append(MatrixLambdaPoly(
                        [[random_lambda_poly(rng, 2, K, 2, 2, True)
                          for _ in range(2)] for _ in range(2)]))
            verdict = positivity_verdict(omega, moyal_r2, tests)
            total += len(tests)
            negatives += [f"{kind}/N={N}/{t.label}" for t in verdict.negatives]
    ok = value_ok and total >= 200 and not negatives
    _report(7, "deformed functional is positive: exact value (0, 1/4) on "
               "the counterexample and no negative verdicts",
            ok, f"{total} random tests, negatives {negatives or 'none'}, "
                f"exact value {t.coefficients}")


def test_criterion_08_wick_certificates():
    n, K = 2, 4
    rng = random.Random(808)
    checked = 0
    for _ in range(100):
        N = rng.choice((1, 2))
        atoms = [
            (tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                   for _ in range(n)),
             tuple(gr(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(N)))
            for _ in range(rng.randint(1, 2))
        ]
        state = StateFunctional(n, N, atoms)
        entries = []
        for i in range(N):
            row = []
            for j in range(N):
                data = {}
                for _ in range(2):
                    idx = [0] * n
                    for _ in range(rng.randint(0, 3)):
                        idx[rng.randrange(n)] += 1
                    if sum(idx) > 3:
                        continue
                    exp = tuple(rng.randint(0, 1) for _ in range(n))
                    key = (0, tuple(idx))
                    poly = monomial(n, exp, gr(rng.randint(-2, 2), rng.randint(-2, 2)))
                    data[key] = data[key] + poly if key in data else poly
                row.append(WElement(n, K, data))
            entries.append(row)
        cert = wick_positivity_certificate(state, MatrixWElement(entries))
        assert cert.all_nonnegative
        assert len(cert.coefficients) == K + 1
        checked += 1
    _report(8, "atomic functionals certify coefficientwise nonnegative on "
               "squares for the z/zbar product", checked == 100,
            f"{checked} seeded matrix elements with decompositions")


def test_criterion_09_gluing(moyal_r2, fixture_tau_r2):
    K = 4
    delta = StateFunctional(2, 1, [((0, 0), (1,))])
    omega = DeformedFunctional(delta, fixture_tau_r2, K)
    chi1 = LambdaPoly.constant(2, K, Fraction(3, 5))
    chi2 = LambdaPoly.constant(2, K, Fraction(4, 5))
    glued = GluedFunctional([(chi1, omega), (chi2, omega)], moyal_r2)

    f = _counterexample()
    g = MatrixLambdaPoly([[star_apply(moyal_r2, f.conjugate(), f)]])
    combo_ok = glued.action(g) == omega.action(g)

    rng = random.Random(909)
    tests = [_counterexample()] + [
        random_lambda_poly(rng, 2, K, 3, 3, True) for _ in range(20)]
    verdict = positivity_verdict(glued, moyal_r2, tests)
    ok = combo_ok and not verdict.negatives
    _report(9, "constant-weight quadratic partitions reproduce the convex "
               "combination and keep verdicts non-negative", ok,
            f"exact combination {combo_ok}, negatives "
            f"{[t.label for t in verdict.negatives] or 'none'}")


def test_criterion_10_determinism():
    # every shipped scenario (the *-spec.json files are star products)
    names = sorted(p.stem for p in SCENARIO_DIR.glob("*.json")
                   if not p.name.endswith("-spec.json"))
    ok = True
    diffs = {}  # off-golden scenario -> head of its unified diff
    for name in names:
        scenario = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
        r1, c1 = run_scenario(scenario)
        r2, c2 = run_scenario(scenario)
        same = (c1 == c2 and
                json.dumps(strip_timings(r1), sort_keys=True) ==
                json.dumps(strip_timings(r2), sort_keys=True))
        golden = GOLDEN_DIR / f"{name}.json"
        text = report_to_json_text(strip_timings(r1))
        expected = golden.read_text() if golden.exists() else ""
        if text != expected:
            diff = difflib.unified_diff(
                expected.splitlines(), text.splitlines(),
                f"golden/{name}.json", f"run of {name}", lineterm="")
            diffs[name] = "\n".join(itertools.islice(diff, 20))
        ok = ok and same and not diffs
    _report(10, "replaying shipped scenarios reproduces reports byte for "
                "byte (timings excluded) and matches the committed golden "
                "reports", ok,
            f"{len(names)} scenarios, off golden {sorted(diffs) or 'none'}"
            + "".join(f"\n{d}" for d in diffs.values()))
