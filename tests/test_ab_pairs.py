"""The summaries of `scripts/ab_pairs.py` on synthetic runs.  A gain
claim holds only when the change wins at least nine tenths of all pairs,
ties counting for neither side, and its median beats the parent's by
more than the distance between the parent's quartiles.  A metric whose
parent spread is wider than its bound is unresolved, unless every run of
the change beats every run of the parent.  The per-pair differences are
change minus parent, pair by pair, whichever direction is better."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", PATH)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


@pytest.mark.parametrize("after, sign, holds", [
    # every pair won by far more than the parent's spread
    ([x - 0.5 for x in PARENT], 1, True),
    # nine wins and one tie of ten pairs: the tie counts for neither side
    ([x - 0.5 for x in PARENT[:9]] + [PARENT[9]], 1, True),
    # eight wins and two ties fall short of nine tenths
    ([x - 0.5 for x in PARENT[:8]] + PARENT[8:], 1, False),
    # nine wins and one loss
    ([x - 0.5 for x in PARENT[:9]] + [PARENT[9] + 1], 1, True),
    # every pair won, by less than the parent's quartile spread
    ([x - 0.001 for x in PARENT], 1, False),
    # a higher-is-better metric
    ([x + 0.5 for x in PARENT], -1, True),
    ([x - 0.5 for x in PARENT], -1, False),
])
def test_gain_claim(after, sign, holds):
    got, line = ab_pairs.gain_claim(PARENT, after, sign)
    assert got is holds
    assert line.startswith(f"  gain claim {'holds' if holds else 'not met'}: won ")


def test_gain_claim_line_reads_the_figures():
    after = [x - 0.5 for x in PARENT[:9]] + [PARENT[9]]
    q1, _, q3 = ab_pairs.quartiles(PARENT)
    _, line = ab_pairs.gain_claim(PARENT, after, 1)
    assert "won 9/10 (needs 9/10)" in line
    assert f"median gain +0.5000 against the parent's quartile spread {q3 - q1:.4f}" in line


@pytest.mark.parametrize("after, sign, bound, verdict", [
    # the parent's quartile spread (0.055) is within a bound of 0.1
    (PARENT, 1, 0.1, "within bound"),
    ([x + 0.05 for x in PARENT], 1, 0.1, "within bound"),
    ([x + 0.2 for x in PARENT], 1, 0.1, "EXCEEDS BOUND"),
    # a bound of 0.01 is finer than the parent's spread
    (PARENT, 1, 0.01, "unresolved"),
    ([x - 0.005 for x in PARENT], 1, 0.01, "unresolved"),
    ([x + 0.02 for x in PARENT], 1, 0.01, "EXCEEDS BOUND"),
    # every change run beats every parent run: resolved whatever the spread
    ([x - 0.1 for x in PARENT], 1, 0.01, "within bound"),
    ([x + 0.1 for x in PARENT], -1, 0.01, "within bound"),
    ([x - 0.005 for x in PARENT], -1, 0.01, "unresolved"),
])
def test_bound_verdict(after, sign, bound, verdict):
    assert ab_pairs.bound_verdict(PARENT, after, sign, bound) == verdict


@pytest.mark.parametrize("offsets, line", [
    ([-0.5] * 10, "-0.5000 [-0.5000, -0.5000]"),
    ([-0.3, -0.2, -0.2, -0.1, -0.1, -0.1, 0.0, 0.1, 0.2, 0.4], "-0.1000 [-0.2000, +0.1250]"),
    # the same differences, paired with the parent's runs in another order
    ([0.4, 0.2, 0.1, 0.0, -0.1, -0.1, -0.1, -0.2, -0.2, -0.3], "-0.1000 [-0.2000, +0.1250]"),
])
def test_pair_differences(offsets, line):
    after = [x + d for x, d in zip(PARENT, offsets)]
    assert ab_pairs.pair_differences(PARENT, after) == (
        f"  pair differences (change - parent): {line}")
