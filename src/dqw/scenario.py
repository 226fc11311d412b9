"""The scenario format: the JSON description of a run, read once.

A scenario fixes the dimension, truncation order, star product (inline
cochains or a named generator), the classical functional, the embedding
source, a test set (explicit elements and/or seeded random generation),
and the command list.  One reader per object checks and converts each
field once and refuses any key that nothing reads: a malformed scenario
raises ConfigurationError, naming the field's full path, at load.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from fractions import Fraction

from .cochain import MultiDiffCochain
from .functionals import MatrixLambdaPoly, StateFunctional
from .rationals import GaussianRational, parse_fraction, parse_scalar
from .starspec import StarProductSpec, digest_json
from .terms import accumulate, shift, zeros
from .welement import LambdaPoly


DEFAULT_COMMANDS = ("validate", "build-tau", "deform", "check-pos")  # every op
CHECK_POS_FIELDS = {"functional": ("deformed", "undeformed"),
                    "expect": ("nonnegative", "negative")}
GENERATORS = ("constant_theta", "zero", "linear_poisson_2d")
# tests.random integer field -> (lowest value, default)
RANDOM_TEST_INTS = {"seed": (0, None), "count": (0, 20), "max_q_degree": (0, 3),
                    "max_coeff": (1, 4)}
_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean"}


class ConfigurationError(ValueError):
    """Malformed or inconsistent scenario content."""


class Scenario(namedtuple("Scenario", "name n K N star_product functional tau_source "
                                     "tests commands inline theta state explicit random_tests ops")):
    """A scenario as written, defaults filled in (what `to_json` returns),
    and as read: the inline product or the generator's bracket, the
    functional, the explicit tests at order K, the random-test settings
    and the commands as objects."""

    __slots__ = ()

    @classmethod
    def from_json(cls, data: dict) -> "Scenario":
        """Read every field of the document once, refusing any key that
        nothing reads; every error names the field's full path."""
        _read_object("", data, ("name", "n", "K", "star_product", "functional"),
                     ("N", "tau", "tests", "commands"))
        _check_type("name", data["name"], str)
        n, K = _check_int("n", data["n"], 1), _check_int("K", data["K"], 0)
        N = _check_int("N", data.get("N", 1), 1)
        tau = _read_object("tau", data.get("tau", {}), (), ("source",)).get("source", "solver")
        if tau not in ("solver", "closed_form"):
            raise ConfigurationError(f"unknown tau.source {tau!r}")
        tests = _read_object("tests", data.get("tests", {}), (), ("explicit", "random"))
        random_tests = _read_random_tests(tests.get("random", {}))
        commands = data.get("commands", list(DEFAULT_COMMANDS))
        ops = _read_commands(commands)
        state = read_functional("functional", data["functional"], n, N)
        inline, theta = _read_star_product(data["star_product"], n, K)
        if tau == "closed_form" and (inline.theta if inline is not None else theta) is None:
            raise ConfigurationError("tau.source 'closed_form' needs a constant bracket matrix")
        explicit = tuple(_read_explicit(at, entry, n, K, N)
                         for at, entry in _read_list("tests.explicit", tests.get("explicit", [])))
        return cls(data["name"], n, K, N, data["star_product"], data["functional"], tau,
                   tests, commands, inline, theta, state, explicit, random_tests, ops)

    def with_fields(self, **fields) -> "Scenario":
        """The scenario whose document has `fields` replaced, read again."""
        return Scenario.from_json({**self.to_json(), **fields})

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
        return digest_json(self.to_json())


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigurationError(f"cannot read scenario: {e}")
    except UnicodeDecodeError as e:
        raise ConfigurationError(f"scenario {path} is not UTF-8: byte {e.start}: {e.reason}")
    except RecursionError:
        raise ConfigurationError(f"malformed JSON in {path}: nested too deeply")
    except json.JSONDecodeError as e:
        raise ConfigurationError(
            f"malformed JSON in {path}: line {e.lineno} column {e.colno}: {e.msg}"
        )
    except ValueError as e:  # an integer literal over the int-string conversion limit
        raise ConfigurationError(f"malformed JSON in {path}: {e}")
    return Scenario.from_json(data)


# ---------------------------------------------------------------------------
# the scenario format: one reader per object, each field checked once
# ---------------------------------------------------------------------------

def _check_type(field: str, value, kind: type):
    if not isinstance(value, kind):
        raise ConfigurationError(
            f"scenario field {field!r} must be {_KINDS[kind]}, got {type(value).__name__}")
    return value


def _check_int(field: str, value, low: int, high: int | None = None) -> int:
    """value, an integer >= low (and <= high, when given)."""
    if (not isinstance(value, int) or isinstance(value, bool) or value < low
            or high is not None and value > high):
        bound = (f">= {low}" if high is None else f"equal to {low}" if low == high
                 else f"between {low} and {high}")
        raise ConfigurationError(
            f"scenario field {field!r} must be an integer {bound}, got {value!r}")
    return value


def _read_object(field: str, value, required, optional=()) -> dict:
    """value, an object with every required key and no other key than the
    optional ones: an unread key, such as a misspelt one, would otherwise
    leave its default in force."""
    where = f"scenario field {field!r}" if field else "the scenario"
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be an object, got {type(value).__name__}")
    for key in required:
        if key not in value:
            raise ConfigurationError(f"{where} misses required key {key!r}")
    known = (*required, *optional)
    for key in value:
        if key not in known:
            path = f"{field}.{key}" if field else key
            raise ConfigurationError(
                f"unknown scenario field {path!r}, expected one of {sorted(known)}")
    return value


def _read_list(field: str, value, length: int | None = None) -> list:
    """(path, entry) for each entry of the list value."""
    _check_type(field, value, list)
    if length not in (None, len(value)):
        raise ConfigurationError(
            f"scenario field {field!r} must have {length} entries, got {len(value)}")
    return [(f"{field}[{i}]", x) for i, x in enumerate(value)]


def _read_exact(field: str, value, parse=parse_fraction):
    """parse(value) for an exact scalar written as a string, or for a
    rational (parse_fraction) also as an integer; a float such as 0.1 is
    not the rational it looks like."""
    if isinstance(value, bool) or not isinstance(
            value, (str, int) if parse is parse_fraction else str):
        raise ConfigurationError(
            f"scenario field {field!r} must be an exact scalar such as '1/2', got {value!r}")
    try:
        return parse(value)
    except ValueError as e:
        raise ConfigurationError(f"scenario field {field!r}: {e}") from None


def _read_theta(field: str, value, n: int) -> tuple:
    """A constant bracket matrix: an antisymmetric n x n matrix of
    rationals, as a tuple of rows."""
    theta = tuple(tuple(_read_exact(at, x) for at, x in _read_list(row_at, row, n))
                  for row_at, row in _read_list(field, value, n))
    if any(theta[k][l] != -theta[l][k] for k in range(n) for l in range(n)):
        raise ConfigurationError(f"scenario field {field!r} must be antisymmetric")
    return theta


def _read_exponents(field: str, value, n: int) -> tuple:
    return tuple(_check_int(at, e, 0) for at, e in _read_list(field, value, n))


def _read_terms(field: str, value, n: int) -> dict:
    """The monomials [exponents, coefficient] of a polynomial in n
    coordinates as {exponents: scalar}; a repeated exponent adds up."""
    terms: dict = {}
    for at, term in _read_list(field, value):
        (exp_at, exp), (c_at, c) = _read_list(at, term, 2)
        accumulate(terms, _read_exponents(exp_at, exp, n), _read_exact(c_at, c, parse_scalar))
    return terms


def read_qpolynomial(field: str, data, n: int) -> dict:
    """The terms {exponents: scalar} of a polynomial {"n", "terms"}."""
    _check_int(f"{field}.n", _read_object(field, data, ("n", "terms"))["n"], n, n)
    return _read_terms(f"{field}.terms", data["terms"], n)


def read_lambda_poly(field: str, data, n: int) -> LambdaPoly:
    """A lam-series {"n", "max_order", "coeffs": [{"lam", "poly"}, ..]},
    poly being the monomial list of the lam^lam coefficient, 0 <= lam <=
    max_order: a term beyond max_order would be dropped unread."""
    _check_int(f"{field}.n", _read_object(field, data, ("n", "max_order", "coeffs"))["n"], n, n)
    max_order = _check_int(f"{field}.max_order", data["max_order"], 0)
    terms: dict = {}
    for at, entry in _read_list(f"{field}.coeffs", data["coeffs"]):
        lam = _check_int(f"{at}.lam", _read_object(at, entry, ("lam", "poly"))["lam"],
                         0, max_order)
        for exp, c in _read_terms(f"{at}.poly", entry["poly"], n).items():
            accumulate(terms, (lam, exp), c)
    return LambdaPoly(n, max_order, terms)


def read_star_product_spec(field: str, data, n: int) -> StarProductSpec:
    """An inline star product {"n", "hermitian", "theta", "cochains"}, as
    `StarProductSpec.to_json` writes it: C_r for each lambda_power r >= 1
    given in at most one cochains entry, as its terms {"coeff_poly",
    "derivs"}; the order is the largest lambda_power."""
    _read_object(field, data, ("n", "hermitian", "cochains"), ("theta",))
    _check_int(f"{field}.n", data["n"], n, n)
    _check_type(f"{field}.hermitian", data["hermitian"], bool)
    theta = data.get("theta")
    z = zeros(n)
    by_power: dict = {}
    for at, entry in _read_list(f"{field}.cochains", data["cochains"]):
        _read_object(at, entry, ("lambda_power", "terms"))
        r = _check_int(f"{at}.lambda_power", entry["lambda_power"], 1)
        if r in by_power:
            raise ConfigurationError(
                f"scenario field '{at}.lambda_power' repeats lambda_power {r}")
        terms = by_power[r] = {}
        for term_at, term in _read_list(f"{at}.terms", entry["terms"]):
            _read_object(term_at, term, ("coeff_poly", "derivs"))
            jvec = tuple(_read_exponents(j_at, j, n)
                         for j_at, j in _read_list(f"{term_at}.derivs", term["derivs"], 2))
            for exp, c in read_qpolynomial(f"{term_at}.coeff_poly", term["coeff_poly"], n).items():
                accumulate(terms, (0, z, jvec, exp), c)
    order = max(by_power, default=0)
    return StarProductSpec(
        n, order, data["hermitian"],
        tuple(MultiDiffCochain(n, order, 2, by_power.get(r)) for r in range(1, order + 1)),
        None if theta is None else _read_theta(f"{field}.theta", theta, n))


def _read_star_product(cfg, n: int, K: int) -> tuple:
    """(inline product, None) for an inline star product, else (None, the
    generator's constant bracket matrix, None for linear_poisson_2d)."""
    if "inline" in _check_type("star_product", cfg, dict):
        inline = _read_object("star_product", cfg, ("inline",))["inline"]
        spec = read_star_product_spec("star_product.inline", inline, n)
        if spec.order < K:
            raise ConfigurationError(
                f"scenario field 'star_product.inline.cochains' reaches order "
                f"{spec.order}, below the scenario's K = {K}")
        return spec, None
    kind = _read_object("star_product", cfg, ("generator",), ("theta",))["generator"]
    if kind not in GENERATORS:
        raise ConfigurationError(f"scenario field 'star_product.generator' must be one of "
                                 f"{GENERATORS}, got {kind!r}")
    if kind == "constant_theta":
        theta = _read_object("star_product", cfg, ("generator", "theta"))["theta"]
        return None, _read_theta("star_product.theta", theta, n)
    _read_object("star_product", cfg, ("generator",))
    if kind == "linear_poisson_2d" and n != 2:
        raise ConfigurationError(
            "scenario field 'star_product.generator': linear_poisson_2d requires n = 2")
    return None, ((Fraction(0),) * n,) * n if kind == "zero" else None


def read_functional(field: str, data, n: int, N: int) -> StateFunctional:
    """Atoms {"point": n rationals, "vector": N complex scalars}."""
    atoms = []
    for at, atom in _read_list(f"{field}.atoms", _read_object(field, data, ("atoms",))["atoms"]):
        _read_object(at, atom, ("point", "vector"))
        atoms.append(([_read_exact(*x) for x in _read_list(f"{at}.point", atom["point"], n)],
                      [_read_exact(*v, parse_scalar)
                       for v in _read_list(f"{at}.vector", atom["vector"], N)]))
    return StateFunctional(n, N, atoms)


def _read_random_tests(randcfg) -> dict | None:
    """tests.random with its defaults filled in, or None when it is empty."""
    _read_object("tests.random", randcfg, ("seed",) if randcfg else (),
                 (*RANDOM_TEST_INTS, "lambda_corrections"))
    settings = {key: _check_int(f"tests.random.{key}", randcfg[key], low)
                if key in randcfg else default
                for key, (low, default) in RANDOM_TEST_INTS.items()}
    settings["lambda_corrections"] = _check_type(
        "tests.random.lambda_corrections", randcfg.get("lambda_corrections", True), bool)
    return settings if randcfg else None


def _read_explicit(field: str, entry, n: int, K: int, N: int) -> MatrixLambdaPoly:
    """An explicit test, {"entries": N x N lam-series} or, for N = 1, one
    lam-series, read at the scenario's order K."""
    cells = [[(field, _check_type(field, entry, dict))]]
    if "entries" in entry or N != 1:
        entries = _read_object(field, entry, ("entries",))["entries"]
        cells = [_read_list(at, row, N) for at, row in _read_list(f"{field}.entries", entries, N)]
    return MatrixLambdaPoly([[LambdaPoly(n, K, read_lambda_poly(at, x, n).terms)
                              for at, x in row] for row in cells])


def _read_commands(commands) -> list:
    """The commands as dicts, after checking each op, its fields and their
    values and that every command comes after the one whose result it uses."""
    out, seen = [], set()
    for at, cmd in _read_list("commands", commands):
        cmd = {"op": cmd} if isinstance(cmd, str) else cmd
        if not isinstance(cmd, dict) or cmd.get("op") not in DEFAULT_COMMANDS:
            raise ConfigurationError(f"bad command entry {at}: {cmd!r}")
        op = cmd["op"]
        _read_object(at, cmd, ("op",), tuple(CHECK_POS_FIELDS) if op == "check-pos" else ())
        for key, allowed in CHECK_POS_FIELDS.items():
            if key in cmd and cmd[key] not in allowed:
                raise ConfigurationError(f"{at}: check-pos field {key!r} must be one of "
                                         f"{allowed}, got {cmd[key]!r}")
        if op == "deform":
            needs = "build-tau"
        elif op == "check-pos" and cmd.get("functional", "deformed") == "deformed":
            needs = "deform"
        else:
            needs = None
        if needs is not None and needs not in seen:
            raise ConfigurationError(f"{at}: {op} needs an earlier {needs} command")
        seen.add(op)
        out.append(dict(cmd))
    return out


def random_lambda_poly(rng: random.Random, n: int, K: int, max_q_degree: int,
                       max_coeff: int, lambda_corrections: bool) -> LambdaPoly:
    terms: dict = {}
    orders = [0]
    if lambda_corrections and K >= 1:
        orders += sorted(rng.sample(range(1, K + 1), k=min(2, K)))
    for r in orders:
        for _ in range(rng.randint(1, 3)):
            exp = zeros(n)
            budget = rng.randint(0, max_q_degree)
            for _ in range(budget):
                exp = shift(exp, rng.randrange(n), 1)
            c = GaussianRational(
                Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, max_coeff)),
                Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, max_coeff)),
            )
            accumulate(terms, (r, exp), c)
    return LambdaPoly(n, K, terms)


def generate_tests(scenario: Scenario, seed_override: int | None = None):
    """The scenario's test elements as N x N matrices, explicit first, then
    seeded random."""
    n, K, N = scenario.n, scenario.K, scenario.N
    tests = list(scenario.explicit)
    labels = [f"explicit_{i}" for i in range(len(tests))]
    settings = scenario.random_tests
    if settings:
        rng = random.Random(settings["seed"] if seed_override is None else seed_override)
        for i in range(settings["count"]):
            tests.append(MatrixLambdaPoly(
                [[random_lambda_poly(rng, n, K, settings["max_q_degree"], settings["max_coeff"],
                                     settings["lambda_corrections"])
                  for _ in range(N)] for _ in range(N)]))
            labels.append(f"random_{i}")
    return tests, labels
