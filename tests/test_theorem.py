"""The paper's theorem on random inputs: for a constant bracket theta, a
positive atomic functional Omega_0 deformed along a certified embedding
tau stays positive, omega(f~ * f) >= 0 in the ordered ring R[[lam]],
for N x N test elements f as well (complete positivity).

Both routes to tau are drawn: the staged solver on the spec at order
2K, and the closed-form substitution of order 2K with its
multiplicativity certificate.  The two build different certified
embeddings, so the test compares verdicts, not series.  A deformed
series that is not real raises `NonRealSeries` in `check_positivity`."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dqw.functionals import DeformedFunctional, MatrixLambdaPoly, StateFunctional
from dqw.scenario import random_lambda_poly
from dqw.starspec import make_constant_theta_star
from dqw.taubuild import ClosedFormTau, build_tau, check_multiplicative

from conftest import positivity_verdict
from strategies import fractions, gaussian_rationals

TESTS_PER_EXAMPLE = 8


@st.composite
def theorem_inputs(draw):
    """(n, K, N, theta, atoms, seed of the tests, whether the solver builds tau)."""
    n = draw(st.sampled_from((2, 3)))
    K = draw(st.sampled_from((2, 3)))
    N = draw(st.sampled_from((1, 2)))
    theta = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            theta[i][j] = draw(fractions())
            theta[j][i] = -theta[i][j]
    atoms = draw(st.lists(st.tuples(st.tuples(*[fractions()] * n),
                                    st.tuples(*[gaussian_rationals()] * N)),
                          min_size=1, max_size=3))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return n, K, N, theta, atoms, seed, draw(st.booleans())


@settings(max_examples=30, deadline=None)
@given(theorem_inputs())
def test_deformed_atomic_functionals_are_positive(inputs):
    n, K, N, theta, atoms, seed, solver = inputs
    spec = make_constant_theta_star(theta, 2 * K)
    if solver:
        tau, _report = build_tau(spec, 2 * K)
    else:
        # certified through K, as a run certifies it
        tau = ClosedFormTau(theta, 2 * K)
        check_multiplicative(spec, tau.components, K)
    omega = DeformedFunctional(StateFunctional(n, N, atoms), tau, K)
    assert omega.sound_order == K
    rng = random.Random(seed)
    tests = [MatrixLambdaPoly([[random_lambda_poly(rng, n, K, 2, 3, True) for _ in range(N)]
                               for _ in range(N)]) for _ in range(TESTS_PER_EXAMPLE)]
    verdict = positivity_verdict(omega, spec, tests)
    assert len(verdict.tests) == TESTS_PER_EXAMPLE
    assert not verdict.negatives, verdict.negatives
