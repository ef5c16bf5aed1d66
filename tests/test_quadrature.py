"""Quadrature kernels against Beta/Dirichlet closed forms."""

import itertools
import math

import numpy as np
import pytest

from bergtoep import quadrature
from bergtoep.indexing import DomainError
from bergtoep.quadrature import (
    QuadratureSpec,
    _golub_welsch,
    build_jacobi_rules,
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
    got = simplex_integrate(lambda x: x[0] ** 2 * x[1], 2,
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
        lambda s: s[0] ** 2 / (1 + s[0] ** 2), 1, (1.0,), 6.0, SPEC)
    assert got == pytest.approx(beta(3.0, 4.0), rel=1e-12)


def test_mc_seed_determinism():
    f = lambda X: np.cos(X[:, 0])
    domain = ("dirichlet", [((0.0,), 0.0)])
    a = mc_integrate(f, domain, 1000, 11)
    b = mc_integrate(f, domain, 1000, 11)
    c = mc_integrate(f, domain, 1000, 12)
    assert a == b
    assert a != c


@pytest.mark.parametrize("kind, n, w", [
    ("nu_m", 3, 3), ("nu_m", 2, 0), ("ball", 3, 1.0), ("ball", 2, -0.5)])
def test_space_draws_are_bitwise_the_one_line_draw(kind, n, w):
    """The points handed to f are bit for bit rho e^{i theta} built from
    the seeded generator in one line, as the measures are documented."""
    N, seed = 5000, 11
    got = []
    mc_integrate(lambda Z: got.append(Z) or np.abs(Z[:, 0]), (kind, n, w),
                 N, seed)
    rng = np.random.default_rng(seed)
    y = rng.dirichlet(np.concatenate([np.ones(n), [w + 1.0]]), size=N)
    rho = np.sqrt(y[:, :n] / y[:, n:] if kind == "nu_m" else y[:, :n])
    theta = rng.random((N, n)) * 2 * np.pi
    want = rho * np.exp(1j * theta)
    assert got[0].dtype == want.dtype and got[0].shape == want.shape
    assert got[0].tobytes() == want.tobytes()


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


# ------------------------------------------- tensor rules kept as factors

def _smooth(x):
    """A non-separable integrand of the coordinates x[0], x[1], ..."""
    lin = sum((i + 1) * xi for i, xi in enumerate(x))
    sq = sum(xi * xi for xi in x)
    return np.cos(lin) / (1.0 + sq) + lin * sq


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_factored_simplex_matches_materialised_rule(d):
    # the broadcast kernel against sum W f(X) over simplex_rule's nodes,
    # at half-integer exponents
    q = (40, 40, 24, 16, 10)[d]
    for a, a0 in (((0.5, 0.0, 1.5, 2.0)[:d], 0.5),
                  ((0.0, 2.5, 0.5, 1.0)[:d], 3.0)):
        X, W = simplex_rule(d, a, a0, q)
        want = np.sum(W * _smooth(list(X.T) + [1.0 - X.sum(axis=-1)]))
        got = simplex_integrate(_smooth, d, a, a0, QuadratureSpec(order=q))
        assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_factored_projective_map_matches_materialised_rule(ell):
    # r_i^2 = u_i / prod_{j>=i}(1-u_j) against X / (1 - sum X)
    q = (40, 40, 20, 10)[ell - 1]
    e = (0.5, 1.0, 1.5, 0.0)[:ell]
    N = ell + sum(e) + 4.5
    X, W = simplex_rule(ell, e, N - ell - 1 - sum(e), q)
    rho = np.sqrt(X / (1.0 - X.sum(axis=-1, keepdims=True)))
    want = np.sum(W * _smooth(list(rho.T)))
    got = radial_integrate_projective(_smooth, ell, e, N,
                                      QuadratureSpec(order=q))
    assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_factored_ball_map_matches_materialised_rule(ell):
    # rho_i = sqrt(x_i) on the broadcast Duffy coordinates
    q = (40, 40, 20, 10)[ell - 1]
    e, a0 = (1.5, 0.0, 0.5, 1.0)[:ell], 1.0
    X, W = simplex_rule(ell, e, a0, q)
    want = np.sum(W * _smooth(list(np.sqrt(X).T)))
    got = simplex_integrate(lambda x: _smooth([np.sqrt(v) for v in x[:-1]]),
                            ell, e, a0, QuadratureSpec(order=q))
    assert got == pytest.approx(want, rel=1e-14)


def test_batched_rules_equal_single_builds():
    pairs = [(a, b) for a in (0.0, 0.5, 3.0, 40.5, 500.0)
             for b in (-0.5, 0.0, 7.0, 100.0, 500.0)]
    for q in (1, 2, 5, 17, 40, 64):
        x, w = _golub_welsch([a for a, _ in pairs], [b for _, b in pairs], q)
        for i, (a, b) in enumerate(pairs):
            x1, w1 = _golub_welsch(a, b, q)
            assert np.array_equal(x[i], x1) and np.array_equal(w[i], w1)


def test_batched_rules_keep_the_refusal_boundary(monkeypatch):
    monkeypatch.setattr(quadrature, "_rules", {})
    # B(511, 511) = 3.5e-309 is below the normal range, B(501, 501) is not
    pairs = [(0.5, 2.0), (510.0, 510.0), (500.0, 500.0), (3.0, 0.0)]
    build_jacobi_rules(pairs, 40)
    assert set(quadrature._rules) == {(0.5, 2.0, 40), (500.0, 500.0, 40),
                                      (3.0, 0.0, 40)}
    for a, b in (0.5, 2.0), (500.0, 500.0), (3.0, 0.0):
        x, w = _golub_welsch(a, b, 40)
        u, w_ab = quadrature._rules[(a, b, 40)]
        assert np.array_equal(u, 0.5 * (x + 1.0))
        assert np.array_equal(w_ab, w * quadrature._mass(a, b))
    with pytest.raises(DomainError, match="not representable"):
        jacobi_rule_01(510.0, 510.0, 40)

    # a rule whose weights come out non-finite stays out of the cache, and
    # jacobi_rule_01 refuses it as before; the rest of its batch is kept
    def nan_row(a, b, q):
        x, w = _golub_welsch(a, b, q)
        w = w.copy()
        w[np.asarray(a) == 7.0] = np.nan
        return x, w

    monkeypatch.setattr(quadrature, "_golub_welsch", nan_row)
    build_jacobi_rules([(7.0, 1.0), (8.0, 1.0)], 12)
    assert (8.0, 1.0, 12) in quadrature._rules
    assert (7.0, 1.0, 12) not in quadrature._rules
    with pytest.raises(DomainError, match="not representable"):
        jacobi_rule_01(7.0, 1.0, 12)
