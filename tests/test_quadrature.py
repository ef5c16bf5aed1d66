"""Quadrature kernels against Beta/Dirichlet closed forms."""

import itertools
import math

import numpy as np
import pytest

from bergtoep.indexing import DomainError
from bergtoep.quadrature import (
    QuadratureSpec,
    dirichlet_closed_form,
    jacobi_rule_01,
    mc_integrate,
    radial_integrate_projective,
    simplex_integrate,
    simplex_rule,
)

SPEC = QuadratureSpec()


def beta(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def test_jacobi_rule_beta_identity():
    # int_0^1 u^a (1-u)^b du = B(a+1, b+1), exponents absorbed in weights
    for a in (0.0, 0.5, 1.0, 2.5):
        for b in (0.0, 0.5, 3.0):
            u, w = jacobi_rule_01(a, b, 12)
            assert np.sum(w) == pytest.approx(beta(a + 1, b + 1), rel=1e-13)


def test_jacobi_rule_polynomial_exactness():
    # order-q Gauss rule integrates polynomials of degree <= 2q-1 exactly
    u, w = jacobi_rule_01(0.5, 1.5, 6)
    for deg in range(12):
        exact = beta(0.5 + deg + 1, 2.5)
        assert np.sum(w * u**deg) == pytest.approx(exact, rel=1e-12)


def test_jacobi_rule_matches_scipy_and_beta_moments():
    # the Golub-Welsch rule against SciPy's, SciPy used as a reference
    # only; a = b takes SciPy's Legendre and Gegenbauer paths
    special = pytest.importorskip("scipy.special")
    funcs = (lambda u: np.cos(3 * u), lambda u: 1 / (1 + u),
             lambda u: np.sqrt(1 + u))
    exps = (0.0, 0.5, 1.0, 2.5, 7.0, 20.0, 40.5, 100.0)
    for a, b in itertools.product(exps, repeat=2):
        for q in (1, 2, 5, 40, 64):
            u, w = jacobi_rule_01(a, b, q)
            x, wr = special.roots_jacobi(q, b, a)
            ur, wr = 0.5 * (x + 1), wr * 0.5 ** (a + b + 1)
            assert np.max(np.abs(u - ur)) < 1e-14
            for f in funcs:
                assert np.sum(w * f(u)) == pytest.approx(np.sum(wr * f(ur)),
                                                         rel=1e-12)
            for j in range(2 * q):
                exact = math.exp(special.betaln(a + j + 1, b + 1))
                assert np.sum(w * u**j) == pytest.approx(exact, rel=1e-11)


def test_jacobi_rule_rejects_subnormal_mass():
    # B(511, 511) = 3.5e-309 is below the normal range: no rule, rather
    # than one whose weights have lost their relative accuracy
    with pytest.raises(DomainError, match="not representable"):
        jacobi_rule_01(510.0, 510.0, 40)
    u, w = jacobi_rule_01(500.0, 500.0, 40)
    assert np.all(np.isfinite(w)) and np.sum(w) > 0


def test_dirichlet_closed_form_values():
    assert dirichlet_closed_form((), 0.0) == pytest.approx(1.0)
    assert dirichlet_closed_form((0.0,), 0.0) == pytest.approx(1.0)
    # int_{Delta_2} x1 x2 dx = 1/24... Gamma(2)^2 Gamma(1)/Gamma(5)
    assert dirichlet_closed_form((1.0, 1.0), 0.0) == pytest.approx(1 / 24)


def test_simplex_rule_dirichlet_identity_half_integer_grid():
    # the unit integrand reproduces the Dirichlet integral for every
    # half-integer exponent combination
    half = [0.0, 0.5, 1.0, 1.5, 2.0]
    for d in (1, 2, 3):
        for a in itertools.product(half[:3], repeat=d):
            for a0 in half:
                got = simplex_integrate(None, d, a, a0, SPEC)
                assert got == pytest.approx(dirichlet_closed_form(a, a0),
                                            rel=1e-12)


def test_simplex_rule_dimension_zero():
    X, W = simplex_rule(0, (), 0.0, 13)
    assert X.shape == (1, 0) and np.sum(W) == 1.0


def test_simplex_rule_rejects_large_dimension():
    with pytest.raises(DomainError):
        simplex_rule(9, (0.0,) * 9, 0.0, 4)


def test_simplex_integrate_polynomial():
    got = simplex_integrate(lambda X: X[:, 0] ** 2 * X[:, 1], 2,
                            (0.5, 0.0), 1.0, SPEC)
    assert got == pytest.approx(dirichlet_closed_form((2.5, 1.0), 1.0),
                                rel=1e-12)


def test_radial_integral_rational_weight():
    # int_{R_+} r^e (1+r)^{-N} dr = B(e+1, N-e-1)
    for e, N in [(0.0, 3.0), (1.5, 5.0), (2.0, 7.5)]:
        got = radial_integrate_projective(None, 1, (e,), N, SPEC)
        assert got == pytest.approx(beta(e + 1, N - e - 1), rel=1e-12)


def test_radial_integral_rejects_divergent():
    with pytest.raises(DomainError):
        radial_integrate_projective(None, 1, (2.0,), 3.0, SPEC)


def test_radial_integral_feeds_square_roots():
    # g(sqrt(r)) = r/(1+r): int r^2 (1+r)^(-7) dr = B(3, 4)
    got = radial_integrate_projective(
        lambda s: s[:, 0] ** 2 / (1 + s[:, 0] ** 2), 1, (1.0,), 6.0, SPEC)
    assert got == pytest.approx(beta(3.0, 4.0), rel=1e-12)


def test_mc_seed_determinism():
    f = lambda X: np.cos(X[:, 0])
    domain = ("dirichlet", [((0.0,), 0.0)])
    a = mc_integrate(f, domain, 1000, 11)
    b = mc_integrate(f, domain, 1000, 11)
    c = mc_integrate(f, domain, 1000, 12)
    assert a == b
    assert a != c


def test_deterministic_kernels_refuse_monte_carlo():
    # a Monte Carlo order counts samples: never read it as Gauss points
    mc = QuadratureSpec(method="monte-carlo", order=1000)
    with pytest.raises(DomainError):
        simplex_integrate(None, 2, (0.0, 0.0), 0.0, mc)
    with pytest.raises(DomainError):
        radial_integrate_projective(None, 1, (0.0,), 3.0, mc)


def test_simplex_rule_node_budget():
    # 46^4 = 4.5e6 nodes is over budget; refused before anything is built
    with pytest.raises(DomainError, match="budget"):
        simplex_rule(4, (0.0,) * 4, 0.0, 46)
    # a 2049-point axis too: its q x q Jacobi matrix is over budget
    with pytest.raises(DomainError, match="budget"):
        simplex_rule(1, (0.0,), 0.0, 2049)
    X, W = simplex_rule(3, (0.0,) * 3, 0.0, 40)
    assert X.shape == (64_000, 3)
    assert np.sum(W) == pytest.approx(1 / 6, rel=1e-13)


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(method="simpson")
    with pytest.raises(DomainError):
        QuadratureSpec(order=0)
