"""Direct-integration oracles: self-validation against exact norms."""

import ast
from pathlib import Path

import numpy as np
import pytest

from bergtoep import oracle
from bergtoep.indexing import (
    DomainError,
    Partition,
    enumerate_basis,
    gammaln,
    monomial_norm_sq_ball,
    monomial_norm_sq_projective,
)
from bergtoep.oracle import (
    gamma_from_oracle,
    inner_product_ball,
    inner_product_projective,
)
from bergtoep.quadrature import mc_integrate, simplex_rule
from bergtoep.symbols import (
    MultiSphereFactor,
    PhaseMonomial,
    Product,
    QuasiRadial,
    evaluate_symbol_batch,
)

K2 = Partition((2,))
UNIT = QuasiRadial("1")


def test_grid_oracle_reproduces_monomial_norms():
    # <z^alpha, z^alpha> with unit symbol equals the exact norm
    for m in (2, 3):
        for alpha in [(0, 0), (1, 0), (1, 1), (0, 2)]:
            res = inner_product_projective(UNIT, alpha, alpha, m, 2, K2,
                                           q_r=24, q_theta=8)
            want = float(monomial_norm_sq_projective(alpha, m))
            assert res.value == pytest.approx(want, rel=1e-12)
            assert res.stderr == 0.0


def test_grid_oracle_orthogonality():
    # distinct monomials integrate to zero through the phase average
    res = inner_product_projective(UNIT, (1, 0), (0, 1), 3, 2, K2,
                                   q_r=24, q_theta=8)
    assert abs(res.value) < 1e-13


def test_grid_oracle_phase_selection():
    # symbol t^(1,-1) couples z^alpha to z^(alpha+p) with a real value
    psi = PhaseMonomial((1, -1))
    res = inner_product_projective(psi, (0, 1), (1, 0), 2, 2, K2,
                                   q_r=24, q_theta=8)
    assert abs(res.value.imag) < 1e-13
    assert res.value.real > 0


def test_mc_measure_validation():
    """Moments of |z_u|^2 under the weight-m measure match exact norm
    ratios: E[|z_u|^2] = ||z^e_u||^2 / ||1||^2."""
    n, m = 2, 3
    for u, alpha in [(0, (1, 0)), (1, (0, 1))]:
        est, stderr = mc_integrate(
            lambda Z: np.abs(Z[:, u]) ** 2, ("nu_m", n, m), 200_000, 9)
        want = float(monomial_norm_sq_projective(alpha, m))
        assert abs(est - want) < 4 * stderr
        assert stderr < 5e-3


def test_mc_oracle_agrees_with_grid():
    psi = QuasiRadial("r1^2/(1+r1^2)")
    grid = inner_product_projective(psi, (1, 0), (1, 0), 3, 2, K2,
                                    q_r=24, q_theta=8)
    mc = inner_product_projective(psi, (1, 0), (1, 0), 3, 2, K2,
                                  method="monte-carlo", samples=200_000,
                                  seed=2)
    assert abs(mc.value - grid.value) < 4 * mc.stderr
    assert mc.stderr > 0


def test_mc_oracle_seed_determinism():
    psi = QuasiRadial("r1^2/(1+r1^2)")
    a = inner_product_projective(psi, (1, 0), (1, 0), 3, 2, K2,
                                 method="monte-carlo", samples=10_000, seed=5)
    b = inner_product_projective(psi, (1, 0), (1, 0), 3, 2, K2,
                                 method="monte-carlo", samples=10_000, seed=5)
    assert a.value == b.value and a.stderr == b.stderr


def test_ball_oracle_reproduces_monomial_norms():
    for lam in (0.0, 1.0):
        for alpha in [(0, 0), (1, 0), (2, 1)]:
            res = inner_product_ball(UNIT, alpha, alpha, lam, 2, K2,
                                     q_r=24, q_theta=8)
            want = monomial_norm_sq_ball(alpha, lam, 2)
            assert res.value == pytest.approx(want, rel=1e-12)


def test_ball_mc_agrees_with_grid():
    psi = QuasiRadial("r1^2")
    grid = inner_product_ball(psi, (1, 0), (1, 0), 1.0, 2, K2,
                              q_r=24, q_theta=8)
    mc = inner_product_ball(psi, (1, 0), (1, 0), 1.0, 2, K2,
                            method="monte-carlo", samples=200_000, seed=3)
    assert abs(mc.value - grid.value) < 4 * mc.stderr


def test_gamma_from_oracle_normalizes():
    res = gamma_from_oracle(UNIT, (1, 1), (0, 0), 3, 2, K2,
                            q_r=24, q_theta=8)
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_oracle_domain_errors():
    with pytest.raises(DomainError):
        inner_product_projective(UNIT, (3, 1), (3, 1), 3, 2, K2)
    with pytest.raises(DomainError):
        inner_product_projective(UNIT, (1, 0, 0), (1, 0, 0), 3, 3,
                                 Partition((2, 1)))  # n=3 has no grid path
    with pytest.raises(DomainError):
        gamma_from_oracle(UNIT, (0, 0), (-1, 1), 3, 2, K2)


# ------------------------------------------------- oracles shared by a table

def _whole_weight_rule(psi, k, alpha, beta, a0, rho_of, logpref, q_r,
                       q_theta):
    """Reference: one polar grid per alpha, its rule carrying the whole
    weight x^e (1 - sum x)^a0 with e = (alpha + beta)/2."""
    n = len(alpha)
    e = tuple((a + b) / 2 for a, b in zip(alpha, beta))
    X, W = simplex_rule(n, e, float(a0), q_r)
    axes = np.meshgrid(*[2 * np.pi * np.arange(q_theta) / q_theta] * n,
                       indexing="ij")
    th = np.stack([g.ravel() for g in axes], axis=-1)
    Z = rho_of(X)[:, None, :] * np.exp(1j * th)[None, :, :]
    mono = np.exp(-1j * th @ (np.asarray(beta) - np.asarray(alpha)))
    total = np.sum(W[:, None] * evaluate_symbol_batch(psi, Z, k) * mono)
    return complex(np.exp(logpref) * total / q_theta**n)


def _table_pairs(n, m, p):
    """(alpha, alpha + p) over the basis, then one beta of the next grade,
    whose half-integer a0 the shared rule must also handle."""
    pairs = [(a, tuple(x + y for x, y in zip(a, p)))
             for a in enumerate_basis(n, m)]
    pairs = [(a, b) for a, b in pairs if min(b) >= 0]
    return pairs + [((0,) * n, (1,) + (0,) * (n - 1))]


def _multisphere(p):
    return Product((QuasiRadial("r1^2/(1+r1^2)"), MultiSphereFactor(0, "s1^2",
                                                                  p)))


@pytest.mark.parametrize("p, m", [
    ((0,), 6), ((0, 0), 6), ((1, -1), 6), ((2, -2), 5)])
def test_table_memo_matches_per_alpha_rules_projective(p, m):
    n, psi = len(p), _multisphere(p)
    k = Partition((n,))
    logpref = gammaln(n + m + 1) - gammaln(m + 1)
    memo = {}
    for q_r, q_theta in ((12, 8), (10, 8), (10, 3)):
        for alpha, beta in _table_pairs(n, m, p):
            shared = inner_product_projective(psi, alpha, beta, m, n, k,
                                              q_r=q_r, q_theta=q_theta,
                                              memo=memo)
            alone = inner_product_projective(psi, alpha, beta, m, n, k,
                                             q_r=q_r, q_theta=q_theta)
            want = _whole_weight_rule(
                psi, k, alpha, beta, m - (sum(alpha) + sum(beta)) / 2,
                lambda X: np.sqrt(X / (1 - X.sum(axis=-1, keepdims=True))),
                logpref, q_r, q_theta)
            assert shared.value == pytest.approx(alone.value, rel=1e-14,
                                                 abs=1e-14)
            assert shared.value == pytest.approx(want, rel=1e-13, abs=1e-14)
            assert shared.samples_or_points == (q_r * q_theta)**n
    # one rule and profile per beta - alpha and grid
    assert len(memo) == 6


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("p", [(0, 0), (1, -1)])
def test_table_memo_matches_per_alpha_rules_ball(lam, p):
    psi = Product((QuasiRadial("r1^2"), MultiSphereFactor(0, "s1^2", p)))
    k, logpref = K2, gammaln(2 + lam + 1) - gammaln(lam + 1)
    memo = {}
    for alpha, beta in _table_pairs(2, 3, p):
        shared = inner_product_ball(psi, alpha, beta, lam, 2, k, q_r=12,
                                    q_theta=8, memo=memo)
        alone = inner_product_ball(psi, alpha, beta, lam, 2, k, q_r=12,
                                   q_theta=8)
        want = _whole_weight_rule(psi, k, alpha, beta, lam, np.sqrt, logpref,
                                  12, 8)
        assert shared.value == pytest.approx(alone.value, rel=1e-14,
                                             abs=1e-14)
        assert shared.value == pytest.approx(want, rel=1e-13, abs=1e-14)


def test_mc_memo_is_bitwise_per_alpha_draws():
    """One draw per importance weight M, and the estimates of separate
    calls, each of which draws again under the same seed."""
    n, m, k, samples, seed = 2, 3, K2, 2000, 4
    psi = _multisphere((1, -1))
    memo = {}
    for alpha, beta in _table_pairs(n, m, (1, -1))[:-1]:
        shared = inner_product_projective(psi, alpha, beta, m, n, k,
                                          method="monte-carlo",
                                          samples=samples, seed=seed,
                                          memo=memo)
        alone = inner_product_projective(psi, alpha, beta, m, n, k,
                                         method="monte-carlo",
                                         samples=samples, seed=seed)
        D = sum(alpha) + sum(beta)
        M = m if D <= m else 2 * m - D
        logw0 = ((gammaln(n + m + 1) - gammaln(m + 1))
                 - (gammaln(n + M + 1) - gammaln(M + 1)))

        def f(Z):
            mono = np.prod(Z ** np.asarray(alpha), axis=-1)
            mono = mono * np.prod(np.conj(Z) ** np.asarray(beta), axis=-1)
            w = np.exp(logw0 + (M - m) * np.log1p(
                np.sum(np.abs(Z) ** 2, axis=-1)))
            return evaluate_symbol_batch(psi, Z, k) * mono * w

        want = mc_integrate(f, ("nu_m", n, M), samples, seed)
        assert (shared.value, shared.stderr) == (alone.value, alone.stderr)
        assert (shared.value, shared.stderr) == want
        assert shared.samples_or_points == samples


def test_unit_symbol_norms_at_boundary_degree():
    # m = 15 = 2 q_r - 1: the largest remainder degree an 8-point rule
    # integrates exactly
    memo = {}
    for alpha in enumerate_basis(2, 15):
        res = inner_product_projective(UNIT, alpha, alpha, 15, 2, K2, q_r=8,
                                       q_theta=4, memo=memo)
        want = float(monomial_norm_sq_projective(alpha, 15))
        assert res.value == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError, match="grid >= 8"):
        inner_product_projective(UNIT, (0, 0), (0, 0), 15, 2, K2, q_r=7)
    with pytest.raises(DomainError, match="grid >= 3"):
        inner_product_ball(UNIT, (2, 2), (2, 2), 1.0, 2, K2, q_r=2)


def test_oracle_imports_no_formula_code():
    """The oracles stay independent of what they check."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, [
                "bergtoep" if node.level else "", node.module]))
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    for name in imported:
        parts = name.split(".")
        assert parts[:2] not in (["bergtoep", "gamma"],
                                 ["bergtoep", "operators"]), name
