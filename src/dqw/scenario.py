"""Scenario-driven runs: load a JSON description, execute the requested
pipeline stages, and emit a deterministic report.

A scenario fixes the dimension, truncation order, star product (inline
cochains or a named generator), the classical functional, the embedding
source, a test set (explicit elements and/or seeded random generation),
and the command list.  Replaying a scenario with the same seed
reproduces the report byte for byte; wall-clock data lives in a separate
"timings" section that comparisons are expected to strip.

Exit codes: 0 all pass; 1 a mathematical violation or negative verdict;
2 configuration or parse error; 3 verdict-bearing steps ran but every
one was inconclusive.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import namedtuple
from fractions import Fraction

from .functionals import (MatrixLambdaPoly, StateFunctional, UndeformedExtension,
                          as_matrix, check_positivity, deform_functional,
                          star_squares)
from .qpoly import QPolynomial
from .rationals import GaussianRational, parse_fraction
from .starspec import (InvalidStarProduct, StarProductSpec,
                       make_constant_theta_star, make_linear_poisson_2d_star,
                       make_zero_star, validate_star)
from .taubuild import (BuildAborted, ClosedFormTau, build_tau,
                       check_poisson_realization)
from .terms import accumulate, shift, zeros
from .welement import LambdaPoly, NonRealSeries
from .weyl import ConsistencyError


EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3

DEFAULT_COMMANDS = ("validate", "build-tau", "deform", "check-pos")  # every op
CHECK_POS_FIELDS = {"functional": ("deformed", "undeformed"),
                    "expect": ("nonnegative", "negative")}
SCENARIO_KEYS = ("name", "n", "K", "N", "star_product", "functional", "tau", "tests",
                 "commands")
RANDOM_TEST_LOWS = {"seed": 0, "count": 0, "max_q_degree": 0, "max_coeff": 1}
_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean"}


class ConfigurationError(ValueError):
    """Malformed or inconsistent scenario content."""


class Scenario(namedtuple("Scenario", "name n K N star_product functional "
                                     "tau_source tests commands")):
    __slots__ = ()

    @classmethod
    def from_json(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"a scenario must be a JSON object, got {type(data).__name__}")
        _check_keys("", data, SCENARIO_KEYS)
        for key, kind in (("name", str), ("star_product", dict), ("functional", dict),
                          ("tau", dict), ("tests", dict), ("commands", list)):
            if key in data:
                _check_type(key, data[key], kind)
        _check_keys("tau.", data.get("tau", {}), ("source",))
        try:
            scenario = cls(
                name=data["name"],
                n=data["n"],
                K=data["K"],
                N=data.get("N", 1),
                star_product=data["star_product"],
                functional=data["functional"],
                tau_source=data.get("tau", {}).get("source", "solver"),
                tests=data.get("tests", {}),
                commands=data.get("commands", list(DEFAULT_COMMANDS)),
            )
        except KeyError as e:
            raise ConfigurationError(f"scenario misses required key {e}")
        for name, low in (("n", 1), ("K", 0), ("N", 1)):
            _check_int(name, getattr(scenario, name), low)
        if scenario.tau_source not in ("solver", "closed_form"):
            raise ConfigurationError(f"unknown tau.source {scenario.tau_source!r}")
        _check_keys("tests.", scenario.tests, ("explicit", "random"))
        _check_type("tests.explicit", scenario.tests.get("explicit", []), list)
        randcfg = scenario.tests.get("random", {})
        _check_type("tests.random", randcfg, dict)
        _check_keys("tests.random.", randcfg, (*RANDOM_TEST_LOWS, "lambda_corrections"))
        for key, low in RANDOM_TEST_LOWS.items():
            if key in randcfg:
                _check_int(f"tests.random.{key}", randcfg[key], low)
        _check_type("tests.random.lambda_corrections",
                    randcfg.get("lambda_corrections", True), bool)
        _normalize_commands(scenario.commands)
        _check_data(scenario)
        return scenario

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "K": self.K,
            "N": self.N,
            "star_product": self.star_product,
            "tau": {"source": self.tau_source},
            "functional": self.functional,
            "tests": self.tests,
            "commands": self.commands,
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _check_type(field: str, value, kind: type) -> None:
    if not isinstance(value, kind):
        raise ConfigurationError(
            f"scenario field {field!r} must be {_KINDS[kind]}, got {type(value).__name__}")


def _check_keys(prefix: str, obj: dict, known) -> None:
    """Every key of obj is one that the runner reads: an unread key, such
    as a misspelt one, would otherwise leave its default in force."""
    for key in obj:
        if key not in known:
            raise ConfigurationError(
                f"unknown scenario field {prefix + key!r}, expected one of {sorted(known)}")


def _check_int(field: str, value, low: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ConfigurationError(
            f"scenario field {field!r} must be an integer >= {low}, got {value!r}")


def _check_scalars(field: str, value, depth: int = 1) -> None:
    """A list, nested depth deep, of exact scalars written as strings or
    integers; a float such as 0.1 is not the rational it looks like."""
    if depth:
        _check_type(field, value, list)
        for i, x in enumerate(value):
            _check_scalars(f"{field}[{i}]", x, depth - 1)
    elif isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ConfigurationError(
            f"scenario field {field!r} must be a string or an integer, got {value!r}")


def _check_explicit(field: str, node) -> None:
    """Every `entries`, `coeffs` and `poly` below node is a list, every `n`
    an integer >= 1 and every `max_order` an integer >= 0."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("entries", "coeffs", "poly"):
                _check_type(f"{field}.{key}", value, list)
            elif key in ("n", "max_order"):
                _check_int(f"{field}.{key}", value, 1 if key == "n" else 0)
            _check_explicit(f"{field}.{key}", value)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _check_explicit(f"{field}[{i}]", value)


def _check_data(scenario: Scenario) -> None:
    """Points, vectors and theta are lists of scalars written as strings or
    integers, and the terms of explicit tests are lists: a string in place
    of a list would be read as its characters.  The `n` and `max_order` of
    an explicit test are integers in range."""
    if "theta" in scenario.star_product:
        _check_scalars("star_product.theta", scenario.star_product["theta"], 2)
    atoms = scenario.functional.get("atoms")
    for i, atom in enumerate(atoms if isinstance(atoms, list) else []):
        for key in ("point", "vector"):
            if isinstance(atom, dict) and key in atom:
                _check_scalars(f"functional.atoms[{i}].{key}", atom[key])
    for i, entry in enumerate(scenario.tests.get("explicit", [])):
        _check_explicit(f"tests.explicit[{i}]", entry)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigurationError(f"cannot read scenario: {e}")
    except json.JSONDecodeError as e:
        raise ConfigurationError(
            f"malformed JSON in {path}: line {e.lineno} column {e.colno}: {e.msg}"
        )
    return Scenario.from_json(data)


# ---------------------------------------------------------------------------
# scenario materialization
# ---------------------------------------------------------------------------

def build_star_product(scenario: Scenario) -> StarProductSpec:
    cfg = scenario.star_product
    kind = cfg.get("generator")
    if kind == "constant_theta":
        try:
            theta = [[parse_fraction(x) for x in row] for row in cfg["theta"]]
            if len(theta) != scenario.n:
                raise ValueError("size differs from scenario dimension")
            return make_constant_theta_star(theta, scenario.K)
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigurationError(f"bad star_product.theta: {e}") from None
    if kind == "zero":
        return make_zero_star(scenario.n, scenario.K)
    if kind == "linear_poisson_2d":
        if scenario.n != 2:
            raise ConfigurationError("linear_poisson_2d requires n = 2")
        return make_linear_poisson_2d_star(scenario.K)
    if "inline" in cfg:
        try:
            spec = StarProductSpec.from_json(cfg["inline"])
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigurationError(f"bad star_product.inline: {e}") from None
        if spec.n != scenario.n:
            raise ConfigurationError("inline star product has wrong dimension")
        if spec.order < scenario.K:
            raise ConfigurationError(
                f"inline star product order {spec.order} below scenario K={scenario.K}"
            )
        return spec
    raise ConfigurationError(f"unknown star_product directive: {cfg}")


def build_functional(scenario: Scenario) -> StateFunctional:
    try:
        _check_type("functional.atoms", scenario.functional["atoms"], list)
        return StateFunctional.from_json(
            {**scenario.functional, "n": scenario.n, "N": scenario.N})
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigurationError(f"bad functional description: {e}") from None


def build_tau_map(scenario: Scenario, spec: StarProductSpec):
    if scenario.tau_source == "solver":
        return build_tau(spec, scenario.K)
    if spec.theta is None:
        raise ConfigurationError(
            "closed_form embedding requires a constant bracket matrix"
        )
    # lam^K of the deformed series is exact once tau is known to degree 2K
    return ClosedFormTau(spec.theta, 2 * scenario.K), None


def random_lambda_poly(rng: random.Random, n: int, K: int, max_q_degree: int,
                       max_coeff: int, lambda_corrections: bool) -> LambdaPoly:
    coeffs = {}
    orders = [0]
    if lambda_corrections and K >= 1:
        orders += sorted(rng.sample(range(1, K + 1), k=min(2, K)))
    for r in orders:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exp = zeros(n)
            budget = rng.randint(0, max_q_degree)
            for _ in range(budget):
                exp = shift(exp, rng.randrange(n), 1)
            c = GaussianRational(
                Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, max_coeff)),
                Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, max_coeff)),
            )
            accumulate(terms, exp, c)
        poly = QPolynomial(n, terms)
        if poly:
            coeffs[r] = poly
    return LambdaPoly(n, K, coeffs)


def generate_tests(scenario: Scenario, seed_override: int | None = None):
    """The scenario's test elements as N x N matrices, explicit first, then
    seeded random."""
    n, K, N = scenario.n, scenario.K, scenario.N
    tests = []
    labels = []
    for i, entry in enumerate(scenario.tests.get("explicit", [])):
        try:
            if "entries" in entry:
                element = MatrixLambdaPoly.from_json(entry)
            else:
                element = as_matrix(LambdaPoly.from_json(entry))
        except KeyError as e:
            raise ConfigurationError(f"tests.explicit[{i}] misses required key {e}")
        except (TypeError, ValueError) as e:
            raise ConfigurationError(f"bad tests.explicit[{i}]: {e}") from None
        if element.N != N or element.n != n:
            raise ConfigurationError(f"explicit test {i} has wrong matrix size or n")
        # a test element is read at the scenario's order
        tests.append(element.map_entries(lambda x: LambdaPoly(n, K, x.terms)))
        labels.append(f"explicit_{i}")
    randcfg = scenario.tests.get("random")
    if randcfg:
        if seed_override is None and "seed" not in randcfg:
            raise ConfigurationError("tests.random misses required key 'seed'")
        seed = seed_override if seed_override is not None else randcfg["seed"]
        rng = random.Random(seed)
        count = randcfg.get("count", 20)
        max_q = randcfg.get("max_q_degree", 3)
        max_c = randcfg.get("max_coeff", 4)
        lam = randcfg.get("lambda_corrections", True)
        for i in range(count):
            tests.append(MatrixLambdaPoly(
                [[random_lambda_poly(rng, n, K, max_q, max_c, lam)
                  for _ in range(N)] for _ in range(N)]
            ))
            labels.append(f"random_{i}")
    return tests, labels


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def _normalize_commands(commands: list) -> list:
    """The commands as dicts, after checking each op, its fields and their
    values and that every command comes after the one whose result it uses."""
    out, seen = [], set()
    for i, cmd in enumerate(commands):
        cmd = {"op": cmd} if isinstance(cmd, str) else cmd
        if not isinstance(cmd, dict) or cmd.get("op") not in DEFAULT_COMMANDS:
            raise ConfigurationError(f"bad command entry commands[{i}]: {cmd!r}")
        op = cmd["op"]
        known = ("op", *CHECK_POS_FIELDS) if op == "check-pos" else ("op",)
        _check_keys(f"commands[{i}].", cmd, known)
        for key, allowed in CHECK_POS_FIELDS.items():
            if key in cmd and cmd[key] not in allowed:
                raise ConfigurationError(
                    f"check-pos field {key!r} must be one of {allowed}, got {cmd[key]!r}")
        if op == "deform":
            needs = "build-tau"
        elif op == "check-pos" and cmd.get("functional", "deformed") == "deformed":
            needs = "deform"
        else:
            needs = None
        if needs is not None and needs not in seen:
            raise ConfigurationError(
                f"commands[{i}]: {op} needs an earlier {needs} command")
        seen.add(op)
        out.append(dict(cmd))
    return out


def run_scenario(scenario: Scenario, seed_override: int | None = None,
                 max_order_override: int | None = None) -> tuple:
    """Execute the scenario.  Returns (report_dict, exit_code)."""
    if max_order_override is not None:
        scenario = Scenario.from_json(
            {**scenario.to_json(), "K": max_order_override}
        )
    t_start = time.perf_counter()
    timings = {}
    commands = _normalize_commands(scenario.commands)
    results = []
    verdict_outcomes = []

    spec = None
    tau = None
    tau_report = None
    deformed = None
    squares = None  # of the test set, made by the first check-pos
    state = build_functional(scenario)

    def record(op, outcome, detail, t0):
        results.append({"op": op, "outcome": outcome, "detail": detail})
        timings[f"{len(results) - 1}:{op}"] = round(time.perf_counter() - t0, 6)

    for cmd in commands:
        op = cmd["op"]
        t0 = time.perf_counter()
        if op == "validate":
            spec = spec or build_star_product(scenario)
            report = validate_star(spec, scenario.K)
            record(op, "pass" if report.ok else "fail", report.to_json(), t0)
            if not report.ok:
                break
        elif op == "build-tau":
            spec = spec or build_star_product(scenario)
            try:
                tau, tau_report = build_tau_map(scenario, spec)
            except (BuildAborted, ConsistencyError, InvalidStarProduct) as e:
                record(op, "fail", {"error": str(e)}, t0)
                break
            realization = check_poisson_realization(tau, spec, K=scenario.K)
            detail = {
                "tau": scenario.tau_source,
                "report": tau_report.to_json() if tau_report else None,
                "poisson_realization": realization.to_json(),
            }
            record(op, "pass" if realization.ok else "fail", detail, t0)
            if not realization.ok:
                break
        elif op == "deform":
            deformed = deform_functional(state, tau, K=scenario.K)
            record(op, "pass", deformed.describe(), t0)
        else:  # check-pos
            spec = spec or build_star_product(scenario)
            expect = cmd.get("expect", "nonnegative")
            if cmd.get("functional", "deformed") == "deformed":
                functional = deformed
            else:
                functional = UndeformedExtension(state, scenario.K)
            if squares is None:
                tests, labels = generate_tests(scenario, seed_override)
                squares = star_squares(spec, tests)
            try:
                verdict = check_positivity(functional, squares, labels)
            except NonRealSeries as e:
                record(op, "fail", {"error": str(e)}, t0)
                break
            detail = verdict.to_json()
            detail["expect"] = expect
            if expect == "negative":
                outcome = "pass" if verdict.aggregate == "fail" else "fail"
            else:
                outcome = verdict.aggregate
            record(op, outcome, detail, t0)
            verdict_outcomes.append(outcome)

    outcomes = [r["outcome"] for r in results]
    if any(o == "fail" for o in outcomes):
        exit_code = EXIT_FAIL
        overall = "fail"
    elif verdict_outcomes and all(o == "inconclusive" for o in verdict_outcomes):
        exit_code = EXIT_INCONCLUSIVE
        overall = "inconclusive"
    else:
        exit_code = EXIT_PASS
        overall = "pass"

    timings["total"] = round(time.perf_counter() - t_start, 6)
    report = {
        "scenario": {
            "name": scenario.name,
            "digest": scenario.digest(),
            "n": scenario.n,
            "K": scenario.K,
            "N": scenario.N,
            "seed_override": seed_override,
        },
        "commands": results,
        "overall": {"outcome": overall, "exit_code": exit_code},
        "timings": timings,
    }
    return report, exit_code


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def report_to_json_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def strip_timings(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}


def report_to_text(report: dict) -> str:
    lines = []
    sc = report["scenario"]
    lines.append(f"scenario {sc['name']} (n={sc['n']}, K={sc['K']}, N={sc['N']})")
    lines.append(f"digest {sc['digest']}")
    for r in report["commands"]:
        lines.append(f"  [{r['outcome'].upper():12s}] {r['op']}")
        detail = r.get("detail") or {}
        if r["op"] == "check-pos" and "tests" in detail:
            for t in detail["tests"]:
                lines.append(
                    f"      {t['label']}: {t['classification']} "
                    f"coefficients {t['coefficients']}"
                )
        if "error" in detail:
            lines.append(f"      error: {detail['error']}")
    ov = report["overall"]
    lines.append(f"overall: {ov['outcome']} (exit {ov['exit_code']})")
    return "\n".join(lines) + "\n"


def emit_report(report: dict, fmt: str = "json") -> str:
    if fmt == "json":
        return report_to_json_text(report)
    if fmt == "text":
        return report_to_text(report)
    raise ConfigurationError(f"unknown report format {fmt!r}")
