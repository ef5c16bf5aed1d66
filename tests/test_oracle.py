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


def test_mc_ball_measure_validation():
    """E[|z_u|^2] under the weight-lambda ball measure is the exact norm
    ratio ||z^e_u||^2 / ||1||^2."""
    for lam in (0.0, 1.0):
        for u, alpha in [(0, (1, 0)), (1, (0, 1))]:
            est, stderr = mc_integrate(lambda Z: np.abs(Z[:, u]) ** 2,
                                       ("ball", 2, lam), 200_000, 9)
            want = monomial_norm_sq_ball(alpha, lam, 2)
            assert abs(est - want) < 4 * stderr


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
            # the factored form: psi w e^{-i (beta-alpha).theta} times the
            # real monomial prod R_i^(alpha_i+beta_i), operation by operation
            R = np.abs(Z.T, order="C")
            c = evaluate_symbol_batch(psi, Z, k)
            c *= np.exp(logw0 + (M - m) * np.log1p(np.sum(R ** 2, axis=0)))
            for j, (a, b) in enumerate(zip(alpha, beta)):
                if b - a:
                    u = np.divide(Z[:, j], R[j],
                                  out=np.ones(len(Z), dtype=complex),
                                  where=R[j] > 0)
                    c = c * (np.conj(u) ** (b - a) if b > a else u ** (a - b))
            mono = None
            for r, e in zip(R, (a + b for a, b in zip(alpha, beta))):
                if e:
                    mono = r ** e if mono is None else mono * r ** e
            return c if mono is None else c * mono

        want = mc_integrate(f, ("nu_m", n, M), samples, seed)
        assert (shared.value, shared.stderr) == (alone.value, alone.stderr)
        assert (shared.value, shared.stderr) == want
        assert shared.samples_or_points == samples


def test_ball_mc_memo_draws_once_per_table(monkeypatch):
    """One draw serves a whole ball table, and each row is bitwise that of
    a separate call."""
    psi, k, lam, p = _multisphere((1, -1)), K2, 1.0, (1, -1)
    calls = []
    draw = oracle.mc_integrate
    monkeypatch.setattr(oracle, "mc_integrate",
                        lambda *a: calls.append(a[1]) or draw(*a))
    # the last two rows bring the shifts (1, 0) and (2, -2)
    memo, rows = {}, _table_pairs(2, 3, p) + [((0, 2), (2, 0))]
    shared = [inner_product_ball(psi, alpha, beta, lam, 2, k,
                                 method="monte-carlo", samples=2000, seed=4,
                                 memo=memo) for alpha, beta in rows]
    assert calls == [("ball", 2, lam)]
    for (alpha, beta), got in zip(rows, shared):
        alone = inner_product_ball(psi, alpha, beta, lam, 2, k,
                                   method="monte-carlo", samples=2000, seed=4)
        assert (got.value, got.stderr) == (alone.value, alone.stderr)
    assert len(calls) == 1 + len(rows)


@pytest.mark.parametrize("space", ["projective", 1.0])
@pytest.mark.parametrize("p", [(1, -1), (2, -2), (-2, 1, 1)])
def test_mc_factored_estimator_matches_complex_powers(space, p):
    """On the same draw, the factored estimate of every row agrees with the
    integrand psi z^alpha conj(z^beta) w taken through complex powers: the
    value to 1e-12 of the mean |term|, the standard error to 1e-12
    relative.  On P^n (m = 4) the rows span several importance weights M,
    and alpha with zero entries are among them."""
    n, m, samples, seed = len(p), 4, 4000, 6
    k = Partition((n,))
    psi = Product((QuasiRadial("r1^2/(1+r1^2)"),
                   MultiSphereFactor(0, "s1^2 + s2", p)))
    memo, weights = {}, set()
    for alpha, beta in _table_pairs(n, m, p):
        if space == "projective":
            D = sum(alpha) + sum(beta)
            M = m if D <= m else 2 * m - D
            domain, weights = ("nu_m", n, M), weights | {M}
            logw0 = ((gammaln(n + m + 1) - gammaln(m + 1))
                     - (gammaln(n + M + 1) - gammaln(M + 1)))
            got = inner_product_projective(psi, alpha, beta, m, n, k,
                                           method="monte-carlo",
                                           samples=samples, seed=seed,
                                           memo=memo)
        else:
            domain, M, logw0 = ("ball", n, space), m, 0.0
            got = inner_product_ball(psi, alpha, beta, space, n, k,
                                     method="monte-carlo", samples=samples,
                                     seed=seed, memo=memo)
        scale = []

        def f(Z):
            mono = np.prod(Z ** np.asarray(alpha), axis=-1)
            mono = mono * np.prod(np.conj(Z) ** np.asarray(beta), axis=-1)
            w = np.exp(logw0 + (M - m) * np.log1p(
                np.sum(np.abs(Z) ** 2, axis=-1)))
            terms = evaluate_symbol_batch(psi, Z, k) * mono * w
            scale.append(np.mean(np.abs(terms)))
            return terms

        value, stderr = mc_integrate(f, domain, samples, seed)
        assert abs(got.value - value) <= 1e-12 * scale[0]
        assert got.stderr == pytest.approx(stderr, rel=1e-12)
    assert space != "projective" or len(weights) > 1


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


# ------------------------------------------------ theta grid by agreement

def test_theta_agreement_resolves_an_alias_cheaply(monkeypatch):
    """<z^(4,0), z^(0,4)> = 0, but a 4-point theta axis aliases the
    frequency (-4, 4) onto 0; the 5-point axis disagrees, so the 8/9 pair
    answers, with a tenth of the points of the 64^2 cap grid."""
    counted = []

    def counting(psi, Z, k):
        counted.append(Z.size // Z.shape[-1])
        return evaluate_symbol_batch(psi, Z, k)

    monkeypatch.setattr(oracle, "evaluate_symbol_batch", counting)
    res = inner_product_projective(UNIT, (4, 0), (0, 4), 8, 2, K2, q_r=8,
                                   q_theta=64)
    assert abs(res.value) < 1e-14
    assert sum(counted) < (8 * 64)**2 / 10
    assert res.samples_or_points == (8 * 64)**2
    # with the cap at 4 there is no pair to compare, and the lone
    # 4-point axis keeps its alias
    alias = inner_product_projective(UNIT, (4, 0), (0, 4), 8, 2, K2, q_r=8,
                                     q_theta=4)
    assert alias.value == pytest.approx(2.38e-3, rel=1e-2)
    # the frequency (-5, 5) aliases on the 5-point axis instead, which the
    # pair must not take alone either
    res = inner_product_projective(UNIT, (5, 0), (0, 5), 10, 2, K2, q_r=8,
                                   q_theta=64)
    assert abs(res.value) < 1e-14


def _projective_rho(X):
    return np.sqrt(X / (1 - X.sum(axis=-1, keepdims=True)))


@pytest.mark.parametrize("space", ["projective", 0.0, 1.0])
@pytest.mark.parametrize("bsrc", ["1", "s1^2", "sin(s1^2)"])
def test_theta_agreement_matches_full_grid(bsrc, space, monkeypatch):
    """The criterion-02 symbols on P^2 (m = 3) and on the ball: with
    q_theta chosen by agreement under a cap of 64, every value is that of
    the full 64^2 theta grid on the same radial rule (the ladder starting
    past the cap), and that of the whole-weight reference where its own
    radial rule integrates to 1e-14.  sin(s1^2) = sin(x1/(x1 + x2)) is not
    smooth at x = 0, so there the two radial rules differ by up to 2e-6
    whatever theta does."""
    m, q_theta = 3, 64

    def value(alpha, beta, psi, q_r, memo):
        if space == "projective":
            return inner_product_projective(psi, alpha, beta, m, 2, K2,
                                            q_r=q_r, q_theta=q_theta,
                                            memo=memo).value
        return inner_product_ball(psi, alpha, beta, space, 2, K2, q_r=q_r,
                                  q_theta=q_theta, memo=memo).value

    for p in ((0, 0), (1, -1), (2, -2)):
        psi = Product((QuasiRadial("r1^2/(1+r1^2)"),
                       MultiSphereFactor(0, bsrc, p)))
        pairs = _table_pairs(2, m, p)
        memo = {}
        agreed = [value(a, b, psi, 4, memo) for a, b in pairs]
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_FIRST_THETA_GRID", q_theta)
            memo = {}
            full = [value(a, b, psi, 4, memo) for a, b in pairs]
        for got, want in zip(agreed, full):
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)
        if bsrc == "sin(s1^2)":
            continue
        # the whole-weight reference costs a full grid per alpha, so it
        # checks one alpha per table.  On P^2 the radial integrands are
        # polynomials of degree <= 4; on the ball r1^2/(1 + r1^2) is
        # x/(1 + x) with x = x1 + x2, analytic on the simplex, and 10 points
        # an axis integrate it well below 1e-13
        alpha, beta = pairs[0]
        if space == "projective":
            q_r, rho_of = 4, _projective_rho
            a0 = m - (sum(alpha) + sum(beta)) / 2
            logpref = gammaln(2 + m + 1) - gammaln(m + 1)
        else:
            q_r, rho_of, a0 = 10, np.sqrt, space
            logpref = gammaln(2 + space + 1) - gammaln(space + 1)
        want = _whole_weight_rule(psi, K2, alpha, beta, a0, rho_of, logpref,
                                  q_r, q_theta)
        assert value(alpha, beta, psi, q_r, {}) == pytest.approx(
            want, rel=1e-13, abs=1e-15)
