"""Exact-arithmetic workbench for star products on flat space: builds the
multiplicative embedding into the formal phase-space algebra order by
order and uses it to deform classical positive functionals into
functionals positive for the star product, verifying every step
symbolically at a configurable truncation order."""

from .cobsolver import solve_classical_coboundary, solve_coboundary
from .cochain import (MultiDiffCochain, alt, coboundary, cochain_weyl_product,
                      compose_slot, identity_cochain, mu_cochain)
from .functionals import (DeformedFunctional, GluedFunctional, MatrixLambdaPoly,
                          StateFunctional, UndeformedExtension, check_positivity,
                          deform_functional, star_squares,
                          wick_positivity_certificate)
from .koszul import KoszulForm, d_p
from .qpoly import QPolynomial
from .rationals import GaussianRational, gr
from .starspec import (StarProductSpec, make_constant_theta_star,
                       make_linear_poisson_2d_star, make_zero_star, star_apply,
                       validate_star)
from .taubuild import (BuildReport, ClosedFormTau, TauMap, build_tau,
                       check_poisson_realization, compute_Rk)
from .welement import LambdaPoly, RealLambdaSeries, SeriesSign, WElement
from .weyl import (MatrixWElement, canonical_bracket, fock_equivalence,
                   iota_star, pi_star, resolve_fock_sign, weyl_product,
                   wick_product)

__version__ = "0.1.0"
