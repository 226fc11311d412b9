#!/usr/bin/env python3
"""Regenerate the derived scenario fixtures.

Writes, next to the hand-written scenarios:

* perturbed-c2.json -- the constant-bracket product on the plane with a
  symmetric biderivation added to the second cochain.  The perturbation
  is a classical cocycle, so associativity first fails at order 3; the
  scenario is expected to exit 1 at the validate step.
* linear-poisson-2d-spec.json -- the standalone star-product JSON for
  the bracket {x, y} = x with the order-2 and order-3 cochains obtained
  by exact classical solves of the associativity constraints.

Both outputs are deterministic; rerunning the script reproduces them
byte for byte.  `fixtures()` returns the texts without writing them.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dqw.cochain import MultiDiffCochain
from dqw.qpoly import QPolynomial
from dqw.starspec import (make_constant_theta_star, make_linear_poisson_2d_star,
                          perturb_cochain, validate_star)

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def _text(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def fixtures() -> dict:
    """The derived fixtures as {path: file text}."""
    moyal = make_constant_theta_star([[0, 1], [-1, 0]], K=4)
    bump = MultiDiffCochain(
        2, 4, 2,
        {(0, (0, 0), ((1, 0), (1, 0))): QPolynomial.constant(2, 1)},
    )
    bad = perturb_cochain(moyal, 2, bump)
    report = validate_star(bad)
    assert not report.ok, "perturbed product unexpectedly validates"
    scenario = {
        "name": "perturbed-c2",
        "n": 2,
        "K": 4,
        "N": 1,
        "star_product": {"inline": bad.to_json()},
        "tau": {"source": "solver"},
        "functional": {"atoms": [{"point": ["0", "0"], "vector": ["1"]}]},
        "tests": {"random": {"seed": 2, "count": 4, "max_q_degree": 2,
                             "max_coeff": 3, "lambda_corrections": True}},
        "commands": ["validate", "build-tau", "deform",
                     {"op": "check-pos", "functional": "deformed",
                      "expect": "nonnegative"}],
    }

    linear = make_linear_poisson_2d_star(K=3)
    assert validate_star(linear).ok
    return {
        SCENARIOS / "perturbed-c2.json": _text(scenario),
        SCENARIOS / "linear-poisson-2d-spec.json": _text(linear.to_json()),
    }


def main():
    for path, text in fixtures().items():
        path.write_text(text)
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
