"""User-facing star products: finite cochain lists with validation.

A star product is presented as bidifferential cochains C_1..C_K with
polynomial coefficients (no p or lam content), acting on the base
algebra as f * g = fg + sum_r lam^r C_r(f, g), together with a claimed
Hermitian flag and the antisymmetric bracket data.  The validator
checks, order by order and purely symbolically:

* associativity: sum_{i+j=m} C_i(C_j(f,g),h) - C_i(f,C_j(g,h)) = 0
  (with C_0 the pointwise product) for every m <= K;
* the first cochain's antisymmetric part equals i times the bracket;
* the Hermitian condition conj(f*g) = conj(g)*conj(f) when claimed;
* unitality C_r(1,.) = C_r(.,1) = 0 for r >= 1.

Violations are reported, not raised, with the first failing order and a
witness argument tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cochain import (MultiDiffCochain, compose_slot, find_witness,
                      mu_cochain, plug_constant)
from .qpoly import DimensionMismatch, QPolynomial
from .rationals import GaussianRational, I
from .terms import accumulate
from .welement import LambdaPoly, _zeros


class InvalidStarProduct(ValueError):
    """A star product failed validation where a valid one is required."""


@dataclass(frozen=True)
class StarProductSpec:
    n: int
    order: int
    hermitian: bool
    cochains: tuple            # C_1..C_order as MultiDiffCochain (arity 2)
    theta: tuple | None = None  # constant antisymmetric matrix, when known

    def __post_init__(self):
        if len(self.cochains) != self.order:
            raise ValueError("need exactly `order` cochains")
        for r, c in enumerate(self.cochains, start=1):
            if c.arity != 2 or c.n != self.n:
                raise DimensionMismatch(f"cochain {r} has wrong shape")
            for (a, idx, _j) in c.terms:
                if a or any(idx):
                    raise ValueError(f"cochain {r} must be p- and lam-free")

    def cochain(self, r: int) -> MultiDiffCochain:
        """C_r for r in 1..order (zero cochain beyond the stored list)."""
        if r < 1:
            raise IndexError("cochain index starts at 1")
        if r > self.order:
            return MultiDiffCochain.zero(self.n, self.order, 2)
        return self.cochains[r - 1]

    # ---- bracket data ----

    def poisson_matrix(self):
        """The antisymmetric bracket coefficients as QPolynomial entries.

        Taken from the stored constant matrix when present, otherwise
        extracted from the antisymmetric part of C_1 (which must be i
        times a real first-order biderivation).
        """
        n = self.n
        if self.theta is not None:
            return [
                [QPolynomial.constant(n, self.theta[k][l]) for l in range(n)]
                for k in range(n)
            ]
        out = [[QPolynomial.zero(n) for _ in range(n)] for _ in range(n)]
        if self.order == 0:
            return out
        anti = self.cochain(1) - _swap(self.cochain(1))
        for (a, idx, jvec), poly in anti.terms.items():
            j1, j2 = jvec
            if sum(j1) != 1 or sum(j2) != 1:
                raise InvalidStarProduct(
                    "antisymmetric part of the first cochain is not a biderivation"
                )
            k = j1.index(1)
            l = j2.index(1)
            theta_poly = poly.scale(-I)  # divide by i
            if not theta_poly.is_real():
                raise InvalidStarProduct("bracket coefficients are not real")
            out[k][l] = out[k][l] + theta_poly
        return out

    def poisson_bracket(self, f: QPolynomial, g: QPolynomial) -> QPolynomial:
        theta = self.poisson_matrix()
        out = QPolynomial.zero(self.n)
        for k in range(self.n):
            fk = f.diff(k)
            if fk.is_zero():
                continue
            for l in range(self.n):
                if theta[k][l].is_zero():
                    continue
                out = out + theta[k][l] * fk * g.diff(l)
        return out

    # ---- canonical JSON (schema is part of the external interface) ----

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "hermitian": self.hermitian,
            "theta": (
                [[str(x) for x in row] for row in self.theta]
                if self.theta is not None else None
            ),
            "cochains": [
                {
                    "lambda_power": r,
                    "terms": [
                        {
                            "coeff_poly": self.cochains[r - 1].terms[key].to_json(),
                            "derivs": [list(j) for j in key[2]],
                        }
                        for key in sorted(self.cochains[r - 1].terms)
                    ],
                }
                for r in range(1, self.order + 1)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "StarProductSpec":
        n = data["n"]
        entries = sorted(data["cochains"], key=lambda e: e["lambda_power"])
        order = max((e["lambda_power"] for e in entries), default=0)
        z = _zeros(n)
        cochains = []
        by_power = {e["lambda_power"]: e for e in entries}
        for r in range(1, order + 1):
            terms = {}
            for t in by_power.get(r, {"terms": []})["terms"]:
                jvec = tuple(tuple(j) for j in t["derivs"])
                poly = QPolynomial.from_json(t["coeff_poly"])
                accumulate(terms, (0, z, jvec), poly)
            cochains.append(MultiDiffCochain(n, order, 2, terms))
        theta = data.get("theta")
        if theta is not None:
            theta = tuple(tuple(Fraction(x) for x in row) for row in theta)
        return cls(n=n, order=order, hermitian=data["hermitian"],
                   cochains=tuple(cochains), theta=theta)


def _swap(phi: MultiDiffCochain) -> MultiDiffCochain:
    out = {}
    for (a, idx, (j1, j2)), poly in phi.terms.items():
        accumulate(out, (a, idx, (j2, j1)), poly)
    return MultiDiffCochain(phi.n, phi.K, 2, out)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def make_constant_theta_star(theta, K: int, hermitian: bool = True) -> StarProductSpec:
    """The exponential star product of a constant antisymmetric matrix:
    C_r = (1/r!) (i/2)^r theta^{k1 l1} .. theta^{kr lr} D_{k..} (x) D_{l..}.
    """
    theta = tuple(tuple(Fraction(x) for x in row) for row in theta)
    n = len(theta)
    for row in theta:
        if len(row) != n:
            raise ValueError("theta must be square")
    for k in range(n):
        for l in range(n):
            if theta[k][l] != -theta[l][k]:
                raise ValueError("theta must be antisymmetric")
    pairs = [
        (k, l, theta[k][l]) for k in range(n) for l in range(n) if theta[k][l]
    ]
    z = _zeros(n)
    cochains = []
    # power[r] maps (A, B) -> scalar for the r-fold tensor power of the bracket
    power = {(z, z): Fraction(1)}
    half_i = I * Fraction(1, 2)
    for r in range(1, K + 1):
        nxt: dict = {}
        for (A, B), c in power.items():
            for (k, l, v) in pairs:
                Ak = list(A); Ak[k] += 1
                Bl = list(B); Bl[l] += 1
                accumulate(nxt, (tuple(Ak), tuple(Bl)), c * v)
        power = nxt
        scale = half_i ** r
        fact = Fraction(1)
        for i in range(2, r + 1):
            fact /= i
        terms = {
            (0, z, (A, B)): QPolynomial.constant(n, GaussianRational(v) * scale * GaussianRational(fact))
            for (A, B), v in power.items()
        }
        cochains.append(MultiDiffCochain(n, K, 2, terms))
    return StarProductSpec(n=n, order=K, hermitian=hermitian,
                           cochains=tuple(cochains), theta=theta)


def make_zero_star(n: int, K: int) -> StarProductSpec:
    zero = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    cochains = tuple(MultiDiffCochain.zero(n, K, 2) for _ in range(K))
    return StarProductSpec(n=n, order=K, hermitian=True,
                           cochains=cochains, theta=zero)


def make_linear_poisson_2d_star(K: int) -> StarProductSpec:
    """A star product for the bracket {x, y} = x on the plane.

    C_1 is (i/2) times the bracket biderivation; each higher C_r is the
    closed-form solve of the order-r associativity constraint (a
    normalized classical arity-3 equation, always solvable in two
    dimensions, where no antisymmetric obstruction exists), then
    replaced by its Hermitian part, which solves the same equation.
    """
    from .cobsolver import solve_classical_coboundary
    from .cochain import coboundary

    n = 2
    z = _zeros(n)
    q1 = QPolynomial.coordinate(n, 0)
    half_i = I * Fraction(1, 2)
    c1 = MultiDiffCochain(
        n, K, 2,
        {(0, z, ((1, 0), (0, 1))): q1.scale(half_i),
         (0, z, ((0, 1), (1, 0))): q1.scale(-half_i)},
    )
    cochains = [c1]
    for r in range(2, K + 1):
        defect = MultiDiffCochain.zero(n, K, 3)
        for i in range(1, r):
            j = r - i
            ci, cj = cochains[i - 1], cochains[j - 1]
            defect = defect + compose_slot(ci, 0, cj) - compose_slot(ci, 1, cj)
        cr = solve_classical_coboundary(defect)
        if cr is None:
            raise InvalidStarProduct(
                f"order-{r} associativity constraint unexpectedly unsolvable"
            )
        herm = cr.hermitian_part()
        if coboundary(herm, deformed=False) == defect:
            cr = herm
        elif defect.involution() != -defect:
            raise InvalidStarProduct("associativity defect lost Hermitian symmetry")
        cochains.append(cr)
    return StarProductSpec(n=n, order=K, hermitian=True,
                           cochains=tuple(cochains), theta=None)


def perturb_cochain(spec: StarProductSpec, r: int,
                    extra: MultiDiffCochain) -> StarProductSpec:
    """A copy of the spec with C_r shifted; used for negative fixtures."""
    cochains = list(spec.cochains)
    cochains[r - 1] = cochains[r - 1] + extra
    return StarProductSpec(n=spec.n, order=spec.order, hermitian=spec.hermitian,
                           cochains=tuple(cochains), theta=spec.theta)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationCheck:
    name: str
    ok: bool
    order: int | None = None
    witness: str | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "ok": self.ok}
        if self.order is not None:
            out["order"] = self.order
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class ValidationReport:
    ok: bool
    checks: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}


def _witness_str(cochain: MultiDiffCochain) -> str:
    got = find_witness(cochain)
    if got is None:
        return ""
    args, val = got
    return f"args ({', '.join(str(a) for a in args)}) -> {val}"


def validate_star(spec: StarProductSpec, K: int | None = None) -> ValidationReport:
    """Run all symbolic checks up to order K (default: the spec order)."""
    K = spec.order if K is None else min(K, spec.order)
    n = spec.n
    checks = []
    mu = mu_cochain(n, spec.order)

    def cr(r):
        return mu if r == 0 else spec.cochain(r)

    assoc_ok = True
    for m in range(1, K + 1):
        defect = MultiDiffCochain.zero(n, spec.order, 3)
        for i in range(0, m + 1):
            j = m - i
            defect = defect + compose_slot(cr(i), 0, cr(j)) - compose_slot(cr(i), 1, cr(j))
        if not defect.is_zero():
            checks.append(ValidationCheck(
                "associativity", False, order=m, witness=_witness_str(defect)))
            assoc_ok = False
            break
    if assoc_ok:
        checks.append(ValidationCheck("associativity", True))

    if spec.order >= 1:
        try:
            theta = spec.poisson_matrix()
            from .cochain import biderivation_cochain
            bracket = biderivation_cochain(n, spec.order, theta).scale(I)
            anti = spec.cochain(1) - _swap(spec.cochain(1))
            diff = anti - bracket
            if diff.is_zero():
                checks.append(ValidationCheck("first_order_bracket", True))
            else:
                checks.append(ValidationCheck(
                    "first_order_bracket", False, order=1, witness=_witness_str(diff)))
        except InvalidStarProduct as e:
            checks.append(ValidationCheck("first_order_bracket", False, order=1,
                                          witness=str(e)))

    if spec.hermitian:
        herm_ok = True
        for r in range(1, K + 1):
            diff = spec.cochain(r).involution() - spec.cochain(r)
            if not diff.is_zero():
                checks.append(ValidationCheck(
                    "hermitian", False, order=r, witness=_witness_str(diff)))
                herm_ok = False
                break
        if herm_ok:
            checks.append(ValidationCheck("hermitian", True))

    unital_ok = True
    for r in range(1, K + 1):
        for slot in (0, 1):
            res = plug_constant(spec.cochain(r), slot)
            if not res.is_zero():
                checks.append(ValidationCheck(
                    "unitality", False, order=r,
                    witness=f"slot {slot}: {_witness_str(res)}"))
                unital_ok = False
                break
        if not unital_ok:
            break
    if unital_ok:
        checks.append(ValidationCheck("unitality", True))

    return ValidationReport(ok=all(c.ok for c in checks), checks=checks)


# ---------------------------------------------------------------------------
# applying a star product to base lam-series
# ---------------------------------------------------------------------------

def _evaluate_base(cochain: MultiDiffCochain, f: QPolynomial, g: QPolynomial) -> QPolynomial:
    w = cochain.evaluate([f, g])
    out = QPolynomial.zero(cochain.n)
    for (a, idx), poly in w.terms.items():
        if a or any(idx):
            raise ValueError("cochain value unexpectedly leaves the base algebra")
        out = out + poly
    return out


def star_apply(spec: StarProductSpec, f: LambdaPoly, g: LambdaPoly) -> LambdaPoly:
    """f * g = fg + sum_r lam^r C_r(f, g), extended lam-bilinearly."""
    if f.n != spec.n or g.n != spec.n:
        raise DimensionMismatch("operand dimension mismatch")
    if f.K != g.K:
        raise DimensionMismatch("operand truncation mismatch")
    K = f.K
    out: dict = {}
    for r1, fp in f.terms.items():
        for r2, gp in g.terms.items():
            if r1 + r2 > K:
                continue
            accumulate(out, r1 + r2, fp * gp)
            for r in range(1, min(spec.order, K - r1 - r2) + 1):
                accumulate(out, r1 + r2 + r, _evaluate_base(spec.cochain(r), fp, gp))
    return LambdaPoly(spec.n, K, out)
