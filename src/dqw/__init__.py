"""Exact-arithmetic workbench for star products on flat space: builds the
multiplicative embedding into the formal phase-space algebra order by
order and uses it to deform classical positive functionals into
functionals positive for the star product, verifying every step
symbolically at a configurable truncation order."""
