"""Direct-integration oracles: self-validation against exact norms."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from bergtoep import oracle, quadrature
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
    SingleSphereFactor,
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
            lambda R, theta: R[:, u] ** 2, ("nu_m", n, m), 200_000, 9)
        want = float(monomial_norm_sq_projective(alpha, m))
        assert abs(est - want) < 4 * stderr
        assert stderr < 5e-3


def test_mc_ball_measure_validation():
    """E[|z_u|^2] under the weight-lambda ball measure is the exact norm
    ratio ||z^e_u||^2 / ||1||^2."""
    for lam in (0.0, 1.0):
        for u, alpha in [(0, (1, 0)), (1, (0, 1))]:
            est, stderr = mc_integrate(lambda R, theta: R[:, u] ** 2,
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
    values = evaluate_symbol_batch(psi, rho_of(X)[:, None, :], th[None], k)
    mono = np.exp(-1j * th @ (np.asarray(beta) - np.asarray(alpha)))
    total = np.sum(W[:, None] * values * mono)
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


def _stacks(pairs):
    """A table's pairs as the two stacks of one oracle call."""
    return [a for a, _ in pairs], [b for _, b in pairs]


def _counting(monkeypatch, name):
    """Record the arguments of every call to oracle.name."""
    calls, fn = [], getattr(oracle, name)
    monkeypatch.setattr(oracle, name,
                        lambda *a: calls.append(a) or fn(*a))
    return calls


@pytest.mark.parametrize("p, m", [
    ((0,), 6), ((0, 0), 6), ((1, -1), 6), ((2, -2), 5)])
def test_table_memo_matches_per_alpha_rules_projective(p, m, monkeypatch):
    """A table's rows, taken in one call, are bitwise those of one-pair
    calls and agree with the whole-weight rule; one rule and profile serve
    each beta - alpha and grid."""
    n, psi = len(p), _multisphere(p)
    k = Partition((n,))
    logpref = gammaln(n + m + 1) - gammaln(m + 1)
    pairs = _table_pairs(n, m, p)
    for q_r, q_theta in ((12, 8), (10, 8), (10, 3)):
        with monkeypatch.context() as patch:
            profiles = _counting(patch, "_radial_profile")
            table = inner_product_projective(psi, *_stacks(pairs), m, n, k,
                                             q_r=q_r, q_theta=q_theta)
        assert len(profiles) == 2
        assert table.samples_or_points == (q_r * q_theta)**n
        for (alpha, beta), shared in zip(pairs, table.value):
            alone = inner_product_projective(psi, alpha, beta, m, n, k,
                                             q_r=q_r, q_theta=q_theta)
            want = _whole_weight_rule(
                psi, k, alpha, beta, m - (sum(alpha) + sum(beta)) / 2,
                lambda X: np.sqrt(X / (1 - X.sum(axis=-1, keepdims=True))),
                logpref, q_r, q_theta)
            assert shared == alone.value
            assert shared == pytest.approx(want, rel=1e-13, abs=1e-14)
            assert alone.samples_or_points == (q_r * q_theta)**n


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("p", [(0, 0), (1, -1)])
def test_table_memo_matches_per_alpha_rules_ball(lam, p):
    psi = Product((QuasiRadial("r1^2"), MultiSphereFactor(0, "s1^2", p)))
    k, logpref = K2, gammaln(2 + lam + 1) - gammaln(lam + 1)
    pairs = _table_pairs(2, 3, p)
    table = inner_product_ball(psi, *_stacks(pairs), lam, 2, k, q_r=12,
                               q_theta=8)
    for (alpha, beta), shared in zip(pairs, table.value):
        alone = inner_product_ball(psi, alpha, beta, lam, 2, k, q_r=12,
                                   q_theta=8)
        want = _whole_weight_rule(psi, k, alpha, beta, lam, np.sqrt, logpref,
                                  12, 8)
        assert shared == alone.value
        assert shared == pytest.approx(want, rel=1e-13, abs=1e-14)


def _factored(psi, k, alpha, beta, measure):
    """One row's integrand on whole arrays of points, operation by
    operation the factored form: psi e^{-i (beta-alpha).theta} times
    exp(log w + sum_i e_i log R_i), e = alpha + beta, with w the density
    C(n+m, n) (1 + |R|^2)^-m of the weight-m measure against the weight-0
    one on P^n, and w = 1 on the ball."""
    kind, n, m = measure

    def f(R, theta):
        c = evaluate_symbol_batch(psi, R, theta, k)
        diff = [b - a for a, b in zip(alpha, beta)]
        if any(diff):
            angle = sum(-d * theta[:, j] for j, d in enumerate(diff) if d)
            cos, sin = np.cos(angle), np.sin(angle)
            c = (c.real * cos - c.imag * sin) + 1j * (c.real * sin
                                                      + c.imag * cos)
        log_f, log_R = 0.0, np.log(R)
        if kind == "nu_m":
            log_f = (math.log(math.comb(n + m, n))
                     - m * np.log1p(np.sum(R ** 2, axis=1)))
        for j, e in enumerate(a + b for a, b in zip(alpha, beta)):
            if e:
                log_f = log_f + e * log_R[:, j]
        return c * np.exp(log_f)

    return f


def test_mc_memo_is_bitwise_per_alpha_draws(monkeypatch):
    """One draw, from the weight-0 measure, serves a whole P^n table, and
    each row is bitwise the estimate of a one-pair call, which draws again
    under the same seed, and of mc_integrate on the row's integrand."""
    n, m, k, samples, seed = 2, 3, K2, 2000, 4
    psi = _multisphere((1, -1))
    pairs = _table_pairs(n, m, (1, -1))[:-1]
    draws = _counting(monkeypatch, "mc_integrate")
    table = inner_product_projective(psi, *_stacks(pairs), m, n, k,
                                     method="monte-carlo", samples=samples,
                                     seed=seed)
    assert [d[1] for d in draws] == [("nu_m", n, 0)]
    for (alpha, beta), value, stderr in zip(pairs, table.value,
                                            table.stderr):
        alone = inner_product_projective(psi, alpha, beta, m, n, k,
                                         method="monte-carlo",
                                         samples=samples, seed=seed)
        want = mc_integrate(_factored(psi, k, alpha, beta, ("nu_m", n, m)),
                            ("nu_m", n, 0), samples, seed)
        assert (value, stderr) == (alone.value, alone.stderr) == want
        assert alone.samples_or_points == table.samples_or_points == samples
    assert len(draws) == 1 + len(pairs)


def test_mc_integrands_are_bounded_by_the_dimension():
    """On every chunk of the weight-0 draw of P^2, each row's integrand at
    m = 40, grades 0 to 40 on both sides, is at most C(n+m, n) max |psi|
    over the chunk, to rounding: no factor R^(alpha+beta) escapes the
    density."""
    n, m, k = 2, 40, K2
    psi = _multisphere((1, -1))
    pairs = [(a, b) for a, b in _table_pairs(n, m, (1, -1))[:-1]
             if sum(a) % 7 == 0] + [((0, 0), (0, m)), ((m, 0), (0, m))]
    f, chunks = oracle._mc_integrands(psi, k, pairs, ("nu_m", n, m)), []

    def checked(R, theta):
        bound = (1 + 1e-12) * math.comb(n + m, n) * np.abs(
            evaluate_symbol_batch(psi, R, theta, k)).max()
        for values in f(R, theta):
            assert np.all(np.abs(values) <= bound)
            yield values
        chunks.append(len(R))

    mc_integrate(checked, ("nu_m", n, 0), 20_000, 2)
    assert sum(chunks) == 20_000 and len(chunks) > 1


def test_ball_mc_memo_draws_once_per_table(monkeypatch):
    """One draw serves a whole ball table, rows with other shifts too, and
    each row is bitwise that of a one-pair call."""
    psi, k, lam, p = _multisphere((1, -1)), K2, 1.0, (1, -1)
    draws = _counting(monkeypatch, "mc_integrate")
    # the last two rows bring the shifts (1, 0) and (2, -2)
    rows = _table_pairs(2, 3, p) + [((0, 2), (2, 0))]
    table = inner_product_ball(psi, *_stacks(rows), lam, 2, k,
                               method="monte-carlo", samples=2000, seed=4)
    assert [d[1] for d in draws] == [("ball", 2, lam)]
    for (alpha, beta), value, stderr in zip(rows, table.value, table.stderr):
        alone = inner_product_ball(psi, alpha, beta, lam, 2, k,
                                   method="monte-carlo", samples=2000, seed=4)
        assert (value, stderr) == (alone.value, alone.stderr)
    assert len(draws) == 1 + len(rows)


def test_ball_mc_table_is_chunk_independent(monkeypatch):
    """On the ball, with the draw streamed in chunks of 1000 points (which
    does not divide the sample count), every row's estimate and standard
    error are bitwise those of mc_integrate on the row's integrand, and
    agree to 1e-13 with the draw taken in one chunk."""
    k, lam, p = Partition((2, 1)), 1.0, (1, -1, 0)
    psi = SingleSphereFactor(0, "sig1^2", (1, -1))
    pairs, domain = _table_pairs(3, 3, p), ("ball", 3, lam)
    rows = []
    for chunk in (1000, 2**15):
        monkeypatch.setattr(quadrature, "_MC_CHUNK_POINTS", chunk)
        table = inner_product_ball(psi, *_stacks(pairs), lam, 3, k,
                                   method="monte-carlo", samples=20_500,
                                   seed=3)
        rows.append(list(zip(table.value.tolist(), table.stderr.tolist())))
        if chunk == 1000:
            assert rows[0] == [
                mc_integrate(_factored(psi, k, alpha, beta, domain),
                             domain, 20_500, 3) for alpha, beta in pairs]
    for (v0, e0), (v1, e1) in zip(*rows):
        assert v0 == pytest.approx(v1, rel=1e-13, abs=1e-15)
        assert e0 == pytest.approx(e1, rel=1e-13)
    assert len(rows[0]) > 5


def test_mc_shifted_is_bitwise_across_chunkings():
    """The phases c of a 100 000-point P^n draw are bit for bit the same
    on the whole draw and on chunks of 2^15 (the last one below NumPy's
    16 384-point elision threshold) and 1000 points."""
    k = Partition((2, 1))
    psi = SingleSphereFactor(0, "sig1^2", (1, -1))
    rng = np.random.default_rng(1)
    y = rng.dirichlet([1.0, 1.0, 1.0, 4.0], size=100_000)
    R = np.sqrt(y[:, :3] / y[:, 3:])
    theta = rng.random((100_000, 3)) * 2 * np.pi
    values = evaluate_symbol_batch(psi, R, theta, k)
    for diff in ((1, -1, 0), (2, -1, -1), (-1, 0, 1), (3, -2, -1)):
        whole = oracle._mc_shifted(values, theta, diff)
        for chunk, stop in ((2**15, len(R)), (1000, len(R)), (999, len(R)),
                            (7, 7000)):
            parts = [oracle._mc_shifted(values[lo:lo + chunk],
                                        theta[lo:lo + chunk], diff)
                     for lo in range(0, stop, chunk)]
            assert np.concatenate(parts).tobytes() == whole[:stop].tobytes()


@pytest.mark.parametrize("space", ["projective", 1.0])
@pytest.mark.parametrize("p", [(1, -1), (2, -2), (-2, 1, 1)])
def test_mc_factored_estimator_matches_complex_powers(space, p):
    """On the same draw, the factored estimate of every row agrees with the
    integrand psi z^alpha conj(z^beta) w taken through complex powers: the
    value to 1e-12 of the mean |term|, the standard error to 1e-12
    relative.  On P^n (m = 4) every row is drawn from the weight-0
    measure, and alpha with zero entries are among the rows."""
    n, m, samples, seed = len(p), 4, 4000, 6
    k = Partition((n,))
    psi = Product((QuasiRadial("r1^2/(1+r1^2)"),
                   MultiSphereFactor(0, "s1^2 + s2", p)))
    pairs = _table_pairs(n, m, p)
    if space == "projective":
        table = inner_product_projective(psi, *_stacks(pairs), m, n, k,
                                         method="monte-carlo",
                                         samples=samples, seed=seed)
    else:
        table = inner_product_ball(psi, *_stacks(pairs), space, n, k,
                                   method="monte-carlo", samples=samples,
                                   seed=seed)
    for (alpha, beta), got_value, got_stderr in zip(pairs, table.value,
                                                    table.stderr):
        if space == "projective":
            M = 0
            domain = ("nu_m", n, M)
            logw0 = ((gammaln(n + m + 1) - gammaln(m + 1))
                     - (gammaln(n + M + 1) - gammaln(M + 1)))
        else:
            domain, M, logw0 = ("ball", n, space), m, 0.0
        scale = []

        def f(R, theta):
            Z = R * np.exp(1j * theta)
            mono = np.prod(Z ** np.asarray(alpha), axis=-1)
            mono = mono * np.prod(np.conj(Z) ** np.asarray(beta), axis=-1)
            w = np.exp(logw0 + (M - m) * np.log1p(
                np.sum(np.abs(Z) ** 2, axis=-1)))
            terms = evaluate_symbol_batch(psi, R, theta, k) * mono * w
            scale.append(np.mean(np.abs(terms)))
            return terms

        value, stderr = mc_integrate(f, domain, samples, seed)
        assert abs(got_value - value) <= 1e-12 * scale[0]
        assert got_stderr == pytest.approx(stderr, rel=1e-12)


def test_unit_symbol_norms_at_boundary_degree():
    # m = 15 = 2 q_r - 1: the largest remainder degree an 8-point rule
    # integrates exactly
    basis = enumerate_basis(2, 15)
    res = inner_product_projective(UNIT, basis, basis, 15, 2, K2, q_r=8,
                                   q_theta=4)
    for alpha, value in zip(basis.tolist(), res.value):
        want = float(monomial_norm_sq_projective(alpha, 15))
        assert value == pytest.approx(want, rel=1e-12)
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

    def counting(psi, R, theta, k):
        values = evaluate_symbol_batch(psi, R, theta, k)
        counted.append(values.size)
        return values

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

    def value(alpha, beta, psi, q_r):
        if space == "projective":
            return inner_product_projective(psi, alpha, beta, m, 2, K2,
                                            q_r=q_r, q_theta=q_theta).value
        return inner_product_ball(psi, alpha, beta, space, 2, K2, q_r=q_r,
                                  q_theta=q_theta).value

    for p in ((0, 0), (1, -1), (2, -2)):
        psi = Product((QuasiRadial("r1^2/(1+r1^2)"),
                       MultiSphereFactor(0, bsrc, p)))
        pairs = _table_pairs(2, m, p)
        agreed = value(*_stacks(pairs), psi, 4)
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_FIRST_THETA_GRID", q_theta)
            full = value(*_stacks(pairs), psi, 4)
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
        assert value(alpha, beta, psi, q_r) == pytest.approx(
            want, rel=1e-13, abs=1e-15)
