"""Closed-form gamma coefficients against independent Beta/Gamma evaluations.

Every expected value below is either an exact rational/Beta expression
computed with math.gamma (never through the package's own quadrature) or a
reduction-consistency statement between two independently coded paths.
"""

import ast
import json
import math
import runpy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bergtoep import gamma as gamma_module
from bergtoep import quadrature
from bergtoep.cli import main
from bergtoep.expr import (BinOp, Call, EvalError, Num, Var,
                           dirichlet_form, dirichlet_monomial, evaluate,
                           monomial, split_terms)
from bergtoep.gamma import (
    BallSpace,
    ProjectiveSpace,
    UnsupportedCaseError,
    build_gamma_table,
    gamma_multisphere,
    gamma_multisphere_factor,
    gamma_quasi_radial,
)
from bergtoep.expr import parse
from bergtoep.indexing import DomainError, Partition, enumerate_basis
from bergtoep.operators import product_table
from bergtoep.oracle import gamma_from_oracle, gamma_from_oracle_ball
from bergtoep.quadrature import (QuadratureSpec, simplex_integrate,
                                 simplex_rule)
from bergtoep.symbols import (
    ExtendedFactor,
    MultiSphereFactor,
    PhaseMonomial,
    Product,
    QuasiRadial,
    SingleSphereFactor,
    ValidationError,
)

SPEC = QuadratureSpec()


def test_quasi_radial_beta_identity():
    # a = |z|^2/(1+|z|^2) acts diagonally with gamma = (n+|alpha|)/(n+m+1)
    for n in (1, 2, 3):
        for m in (0, 1, 2, 3, 4):
            k = Partition((n,))
            for alpha in enumerate_basis(n, m):
                got = gamma_quasi_radial(parse("r1^2/(1+r1^2)"), k, m,
                                         alpha, SPEC)
                assert got == pytest.approx((n + sum(alpha)) / (n + m + 1),
                                            abs=1e-12)


@pytest.mark.parametrize("n,m", [(2, 200), (1, 1000)])
def test_beta_closed_form_within_one_ulp(n, m):
    """The prefactor and the integral are multiplied as floats, so gamma is
    rounded at its own scale, not at that of its logarithm (about 3 ulps
    at these weights)."""
    table = build_gamma_table(QuasiRadial("r1^2/(1+r1^2)"),
                              ProjectiveSpace(n, m), Partition((n,)), SPEC)
    grade = enumerate_basis(n, m).sum(axis=1)
    exact = (n + grade) / (n + m + 1)
    assert np.all(np.abs(table.values - exact) <= np.spacing(exact))


def test_table_entries_are_a_view_by_rank():
    table = build_gamma_table(MultiSphereFactor(0, "s1^2", (1, -1)),
                              ProjectiveSpace(2, 3), Partition((2,)), SPEC)
    basis = enumerate_basis(2, 3)
    assert list(table.entries) == [tuple(a) for a in basis.tolist()]
    assert len(table.entries) == len(basis)
    assert list(table.entries.values()) == table.values.tolist()
    assert dict(table.entries.items()) == dict(zip(table.entries,
                                                   table.values.tolist()))
    for i, alpha in enumerate(basis):
        assert (table.entries[alpha] == table.entries[list(alpha)]
                == table[tuple(alpha)] == table.values[i])
    for key in [(4, 0), (-1, 1), (1,), (1, 0, 0), (1.0, 0.0), "ab"]:
        assert key not in table.entries
    assert not table.values.flags.writeable


def test_entries_items_and_lookup_are_in_row_order(monkeypatch):
    """items() pairs the basis with values and ranks no key; a lookup of
    every alpha of a whole basis reads values in row order."""
    table = build_gamma_table(MultiSphereFactor(0, "s1^2", (1, -1)),
                              ProjectiveSpace(3, 8), Partition((2, 1)), SPEC)
    basis = enumerate_basis(3, 8)
    got = [table.entries[alpha] for alpha in basis.tolist()]
    assert got == table.values.tolist()

    def no_rank(*args):
        raise AssertionError("items() ranked a key")

    monkeypatch.setattr(gamma_module, "basis_rank", no_rank)
    items = table.entries.items()
    assert items == list(zip(map(tuple, basis.tolist()),
                             table.values.tolist()))


def test_tables_compare_by_value():
    args = (MultiSphereFactor(0, "s1^2", (1, -1)), ProjectiveSpace(2, 3),
            Partition((2,)), SPEC)
    table = build_gamma_table(*args)
    assert table == build_gamma_table(*args)
    values = table.values.copy()
    values[4] += 1e-9
    assert table != table.replace(values=values)
    assert table != table.replace(shift=(0, 0))


def test_quasi_radial_specific_value():
    # n=2, m=2, alpha=(1,0): (2+1)/5
    got = gamma_quasi_radial(parse("r1^2/(1+r1^2)"), Partition((2,)), 2,
                             (1, 0), SPEC)
    assert got == pytest.approx(3 / 5, abs=1e-12)


def test_quasi_radial_depends_on_block_degrees_only():
    a = parse("r1^2/(1 + r1^2 + r2^2)")
    k = Partition((2, 1))
    v1 = gamma_quasi_radial(a, k, 4, (2, 0, 1), SPEC)
    v2 = gamma_quasi_radial(a, k, 4, (0, 2, 1), SPEC)
    assert v1 == v2
    v3 = gamma_quasi_radial(a, k, 4, (1, 0, 2), SPEC)
    assert abs(v1 - v3) > 1e-6


@pytest.mark.parametrize("m, a", [(1000, 333), (3000, 1000)])
def test_large_weight_half_power_is_a_gamma_ratio(m, a):
    """r2 = (U_2/U_0)^(1/2) on k=(1,1), m-d = m-2a, has gamma
    Gamma(a+3/2) Gamma(m-d+1/2) / (Gamma(a+1) Gamma(m-d+1)), near 1 though
    the weight's mass underflows: a mean under probability rules."""
    got = gamma_quasi_radial(parse("r2"), Partition((1, 1)), m, (a, a), SPEC)
    # Gamma(3/2) Gamma(1/2) = pi/2 times products of (i + 1/2)/i and
    # (i - 1/2)/i, exact but for their rounding
    want = (math.pi / 2 * math.prod((i + 0.5) / i for i in range(1, a + 1))
            * math.prod((i - 0.5) / i for i in range(1, m - 2 * a + 1)))
    assert got == pytest.approx(want, rel=1e-11)


def test_multisphere_factor_unit_is_one():
    k = Partition((3,))
    for alpha in [(0, 0, 0), (1, 2, 0), (2, 2, 2)]:
        got = gamma_multisphere_factor(None, k, 0, (0, 0, 0), alpha, SPEC)
        assert got == pytest.approx(1.0, abs=1e-12)


def test_multisphere_factor_beta_value():
    # b=1, p=(1,-1), alpha=(1,1): 3! / (2! 0!) * B(5/2, 3/2) = 3 pi/16
    got = gamma_multisphere_factor(None, Partition((2,)), 0, (1, -1),
                                   (1, 1), SPEC)
    expect = (math.gamma(4) / (math.gamma(3) * math.gamma(1))
              * math.gamma(2.5) * math.gamma(1.5) / math.gamma(4))
    assert expect == pytest.approx(3 * math.pi / 16)
    assert got == pytest.approx(expect, abs=1e-12)


def test_multisphere_factor_hard_zero():
    got = gamma_multisphere_factor(None, Partition((2,)), 0, (2, -2),
                                   (1, 0), SPEC)
    assert got == 0.0


def _gamma_ratio_mp(mpmath, alpha, p):
    """prod Gamma(alpha_i + p_i/2 + 1) / Gamma(alpha_i + p_i + 1), the
    coefficient of b = 1, in mpmath at 50 digits."""
    with mpmath.workdps(50):
        return float(mpmath.fprod(
            mpmath.gamma(a + mpmath.mpf(q) / 2 + 1) / mpmath.gamma(a + q + 1)
            for a, q in zip(alpha, p)))


@pytest.mark.parametrize("m", [30, 300, 3000, 30000])
def test_multisphere_factor_gamma_ratio_at_large_weight(m):
    """b = 1, p = (1, -1): gamma is the Gamma ratio alone, within 1e-14
    relative of mpmath at alpha = (1, m-1) and (m/2-1, m/2).  Differences
    of lgamma values missed by up to 2e-11 at m = 30000."""
    mpmath = pytest.importorskip("mpmath")
    for alpha in [(1, m - 1), (m // 2 - 1, m // 2)]:
        got = gamma_multisphere_factor(None, Partition((2,)), 0, (1, -1),
                                       alpha, SPEC)
        want = _gamma_ratio_mp(mpmath, alpha, (1, -1))
        assert abs(got - want) <= 1e-14 * want


def test_gamma_ratio_of_every_row():
    """The b = 1 table on P^2, p = (1, -1), m = 40: every row's Gamma ratio
    is within 1e-14 relative of mpmath (differences of lgamma values
    missed by 2.2e-14)."""
    mpmath = pytest.importorskip("mpmath")
    table = build_gamma_table(MultiSphereFactor(0, None, (1, -1)),
                              ProjectiveSpace(2, 40), Partition((2,)), SPEC)
    for alpha, got in table.entries.items():
        want = _gamma_ratio_mp(mpmath, alpha, (1, -1)) if alpha[1] else 0
        assert abs(got - want) <= 1e-14 * want


def test_multisphere_factor_weight_free_signature():
    # the value never references m at all; same alpha, any ambient weight
    k = Partition((2, 1))
    got = gamma_multisphere_factor(parse("s1^2"), k, 0, (1, -1), (2, 1, 5),
                                   SPEC)
    again = gamma_multisphere_factor(parse("s1^2"), k, 0, (1, -1),
                                     (2, 1, 99), SPEC)
    assert got == again


def test_phase_monomial_beta_value():
    # t^(1,-1) on n=2, m=2, alpha=(0,1):
    # 4!/(1! 1! 0!) * B(3,2) * B(3/2, 3/2) = 24 * (1/12) * (pi/8) = pi/4
    psi = PhaseMonomial((1, -1))
    got = gamma_multisphere(psi, Partition((2,)), 2, (0, 1), SPEC)
    assert got == pytest.approx(math.pi / 4, abs=1e-12)


def test_multisphere_product_factorizes_blockwise_zero():
    k = Partition((2, 1))
    m = 3
    a = QuasiRadial("r1^2/(1 + r1^2 + r2^2)")
    b = MultiSphereFactor(0, "s1^2 + s2", (1, -1))
    psi = Product((a, b))
    for alpha in enumerate_basis(3, m):
        whole = gamma_multisphere(psi, k, m, alpha, SPEC)
        parts = (gamma_quasi_radial(a.a, k, m, alpha, SPEC)
                 * gamma_multisphere_factor(b.b, k, 0, b.p, alpha, SPEC))
        shifted = (alpha[0] + 1, alpha[1] - 1, alpha[2])
        if min(shifted) < 0 or sum(shifted) > m:
            assert whole == 0.0
        else:
            assert whole == pytest.approx(parts, abs=1e-12)


def test_single_sphere_beta_value():
    # n=3, k=(2,1), block 0, b=1, p=(1,-1), alpha=(1,1,1):
    # 5!/(1! 2! 0!) * Gamma(5/2)Gamma(3/2)Gamma(2)/Gamma(6) = 3 pi/16
    table = build_gamma_table(SingleSphereFactor(0, None, (1, -1)),
                              ProjectiveSpace(3, 3), Partition((2, 1)), SPEC)
    assert table[(1, 1, 1)] == pytest.approx(3 * math.pi / 16, abs=1e-12)


def test_single_sphere_hard_zero():
    table = build_gamma_table(SingleSphereFactor(0, None, (2, -2)),
                              ProjectiveSpace(3, 2), Partition((2, 1)), SPEC)
    assert table[(1, 1, 0)] == 0.0


def test_single_sphere_unit_is_one():
    table = build_gamma_table(SingleSphereFactor(0, None, (0, 0)),
                              ProjectiveSpace(3, 5), Partition((2, 1)), SPEC)
    for alpha in [(0, 0, 0), (1, 0, 2), (2, 2, 1)]:
        assert table[alpha] == pytest.approx(1.0, abs=1e-12)


def test_single_sphere_full_block_unsupported():
    with pytest.raises(UnsupportedCaseError):
        build_gamma_table(SingleSphereFactor(0, None, (1, -1)),
                          ProjectiveSpace(2, 2), Partition((2,)), SPEC)


def test_single_sphere_full_block_table_unsupported():
    with pytest.raises(UnsupportedCaseError, match="not covered"):
        build_gamma_table(SingleSphereFactor(0, "sig1", (1, -1)),
                          ProjectiveSpace(2, 3), Partition((2,)), SPEC)


def test_single_sphere_table_is_its_per_alpha_coefficient():
    """A single-sphere block that is not the first: the table and the
    coefficient on P^4 of weight |alpha|, the table there, agree bit for bit
    (the radial mean of the lone block closes to 1)."""
    k, psi = Partition((2, 2)), SingleSphereFactor(1, "sig1^2 + sig2", (1, -1))
    tables = [build_gamma_table(psi, ProjectiveSpace(4, m), k, SPEC)
              for m in range(7)]
    assert sum(v != 0 for v in tables[6].entries.values()) > 100
    for alpha, got in tables[6].entries.items():
        assert got == tables[sum(alpha)][alpha]


@pytest.mark.parametrize("b", ["sig1^2", "sig1^2+sig2", "exp(sig1)"])
def test_single_sphere_on_the_ball_is_its_projective_table(b):
    """A lone single-sphere factor's mean and Gamma ratio do not read the
    space: its table on the ball (lambda = 0.5, cap 6) is bitwise its table
    on P^3 at m = 6, and every row is within 4 stderr of the ball's Monte
    Carlo oracle (2 10^5 samples)."""
    k, psi = Partition((2, 1)), SingleSphereFactor(0, b, (1, -1))
    table = build_gamma_table(psi, BallSpace(3, 0.5, 6), k, SPEC)
    on_pn = build_gamma_table(psi, ProjectiveSpace(3, 6), k, SPEC)
    assert table.annotation == on_pn.annotation == "single-sphere"
    assert table.values.tobytes() == on_pn.values.tobytes()
    alphas = [a for a, v in table.entries.items() if v != 0]
    o = gamma_from_oracle_ball(psi, alphas, table.shift, 0.5, 3, k,
                               method="monte-carlo", samples=2 * 10**5,
                               seed=3)
    assert len(alphas) == 56
    for alpha, value, stderr in zip(alphas, o.value, o.stderr):
        assert abs(table.entries[alpha] - value) <= 4 * stderr


def test_single_sphere_monte_carlo_draws_only_its_block():
    """Under Monte Carlo the estimate is the Gamma ratio over block j times
    one draw from the block's weight (h_(j), |alpha| - |alpha_(j)| + n -
    k_j - 1) with the spec's seed: no radial weight is drawn before it."""
    spec = QuadratureSpec(method="monte-carlo", order=2000, seed=3)
    b, alpha = parse("sig1^2 + sig2"), (1, 1, 1)
    got = build_gamma_table(SingleSphereFactor(0, b, (1, -1)),
                            ProjectiveSpace(3, 3), Partition((2, 1)),
                            spec)[alpha]
    h, leftover = (1.5, 0.5), 3 - 2 + 3 - 2 - 1
    mean, _ = quadrature.mc_integrate(
        lambda X: evaluate(b, {"sig1": np.sqrt(X[:, 0]),
                               "sig2": np.sqrt(X[:, 1])}),
        ("dirichlet", [(h, leftover)]), spec.order, spec.seed)
    ratio = math.gamma(2.5) * math.gamma(1.5) / (math.gamma(3) * math.gamma(1))
    assert got == pytest.approx(ratio * mean, rel=1e-15)


def test_monte_carlo_draws_no_weight_of_a_block_without_cosines(
        monkeypatch):
    """An extended factor whose b reads radii only is evaluated on the
    radial draw: one factor per draw, one draw per radial key (|alpha_(1)|,
    alpha_3, |alpha|) of the live rows."""
    psi = Product((QuasiRadial("r1^2/(1+r1^2+r2^2)"),
                   ExtendedFactor(0, "r1^2/(1+r1^2)", (1, -1))))
    spec = QuadratureSpec(method="monte-carlo", order=1000, seed=0)
    factors, draw = [], gamma_module.mc_integrate
    monkeypatch.setattr(gamma_module, "mc_integrate", lambda f, domain, *a: (
        factors.append(len(domain[1])) or draw(f, domain, *a)))
    table = build_gamma_table(psi, ProjectiveSpace(3, 6), Partition((2, 1)),
                              spec)
    assert factors == [1] * 21
    assert np.all(np.isfinite(table.values))


def test_single_sphere_depends_on_block_and_total_degree():
    table = build_gamma_table(SingleSphereFactor(0, "sig1^2", (1, -1)),
                              ProjectiveSpace(4, 4), Partition((2, 2)), SPEC)
    assert table[(1, 1, 2, 0)] == table[(1, 1, 0, 2)]
    assert table[(1, 1, 2, 0)] != table[(1, 1, 1, 0)]


def test_extended_reduces_to_quasi_radial():
    # r-only dependence must reproduce the radial theorem exactly
    k = Partition((2,))
    m = 2
    psi = ExtendedFactor(0, "r1^2/(1+r1^2)", (0, 0))
    table = build_gamma_table(psi, ProjectiveSpace(2, m), k, SPEC)
    for alpha, got in table.entries.items():
        want = (2 + sum(alpha)) / 5
        assert got == pytest.approx(want, rel=1e-12)
    assert table[(1, 0)] == pytest.approx(3 / 5, rel=1e-12)


def test_extended_reduces_to_multisphere():
    k = Partition((2,))
    m = 3
    for p in [(0, 0), (1, -1)]:
        psi_e = ExtendedFactor(0, "s1^2", p)
        psi_m = MultiSphereFactor(0, "s1^2", p)
        table = build_gamma_table(psi_e, ProjectiveSpace(2, m), k, SPEC)
        for alpha, got in table.entries.items():
            want = gamma_multisphere(Product((psi_m,)), k, m, alpha, SPEC)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_extended_ball_beta_value():
    # n=2, k=(2), b=1, p=(1,-1), lambda=0, alpha=(1,1): the same block
    # Beta factor 3 pi/16 with unit radial part
    psi = MultiSphereFactor(0, "1", (1, -1))
    got = build_gamma_table(Product((psi,)), BallSpace(2, 0.0, 2),
                            Partition((2,)), SPEC)[(1, 1)]
    assert got == pytest.approx(3 * math.pi / 16, abs=1e-12)


def test_extended_ball_unit_symbol():
    k = Partition((2, 1))
    for lam in (0.0, 1.0, 2.5):
        table = build_gamma_table(QuasiRadial("1"), BallSpace(3, lam, 3), k,
                                  SPEC)
        for alpha in [(0, 0, 0), (1, 2, 0), (0, 1, 1)]:
            assert table[alpha] == pytest.approx(1.0, abs=1e-12)


def test_extended_ball_modulus_symbol():
    # n=1, a = |z|, lambda=0, alpha=(0): (1/pi) int_D |z| dV = 2/3.
    # a(sqrt(r)) = sqrt(r) has a branch point at r=0, so Gauss converges
    # algebraically here rather than geometrically.
    got = build_gamma_table(QuasiRadial("r1"), BallSpace(1, 0.0, 0),
                            Partition((1,)), SPEC)[(0,)]
    assert got == pytest.approx(2 / 3, rel=1e-4)


def test_build_table_unit_symbol():
    sp = ProjectiveSpace(2, 2)
    table = build_gamma_table(QuasiRadial("1"), sp, Partition((2,)), SPEC)
    assert len(table.entries) == 6
    for v in table.entries.values():
        assert v == pytest.approx(1.0, abs=1e-12)


def test_build_table_records_hard_zeros():
    sp = ProjectiveSpace(2, 2)
    psi = PhaseMonomial((1, -1))
    table = build_gamma_table(psi, sp, Partition((2,)), SPEC)
    live = {a for a, v in table.entries.items() if v != 0}
    assert live == {(0, 1), (1, 1), (0, 2)}
    assert table.entries[(0, 0)] == 0j
    assert table.shift == (1, -1)


def test_build_table_rejects_uncovered_mix():
    sp = ProjectiveSpace(3, 2)
    bad = Product((SingleSphereFactor(0, "sig1", (0, 0)),
                   ExtendedFactor(1, "r1", (0,))))
    with pytest.raises(ValidationError):
        build_gamma_table(bad, sp, Partition((2, 1)), SPEC)


def test_extended_mc_backend_consistency():
    k = Partition((2,))
    m = 3
    psi = Product((QuasiRadial("r1^2/(1+r1^2)"),
                   ExtendedFactor(0, "r1^2/(1+r1^2)*s1^2", (1, -1))))
    mc_spec = QuadratureSpec(method="monte-carlo", order=200_000, seed=4)
    for space in (ProjectiveSpace(2, m), BallSpace(2, 1.0, 2)):
        det, mc = (build_gamma_table(psi, space, k, spec)[(1, 1)]
                   for spec in (SPEC, mc_spec))
        assert mc != det
        assert mc == pytest.approx(det, rel=0.05)


def test_block_factor_mc_backend_consistency():
    # the per-block factors draw from their Dirichlet weight, as the engine
    # does, and read the spec's order as a sample count
    k = Partition((2, 1))
    mc_spec = QuadratureSpec(method="monte-carlo", order=200_000, seed=4)
    cases = (
        lambda spec: gamma_multisphere_factor(parse("s1^2 + s2"), k, 0,
                                              (1, -1), (2, 1, 5), spec),
        lambda spec: build_gamma_table(
            SingleSphereFactor(0, "sig1^2 + sig2", (1, -1)),
            ProjectiveSpace(3, 3), k, spec)[(1, 1, 1)],
    )
    for gamma in cases:
        det, mc = gamma(SPEC), gamma(mc_spec)
        assert mc != det
        assert mc == pytest.approx(det, rel=0.05)


def test_monte_carlo_needs_100_samples():
    k = Partition((2,))
    psi = Product((QuasiRadial("r1^2/(1+r1^2)"),
                   ExtendedFactor(0, "r1^2/(1+r1^2)*s1^2", (1, -1))))
    few = QuadratureSpec(method="monte-carlo", order=99)
    for space in (ProjectiveSpace(2, 3), BallSpace(2, 1.0, 2)):
        with pytest.raises(DomainError):
            build_gamma_table(psi, space, k, few)
    with pytest.raises(DomainError):
        gamma_multisphere(PhaseMonomial((1, -1)), k, 3, (0, 1), few)


# ------------------------------------------- tensor rules kept as factors

@pytest.mark.parametrize("space", [ProjectiveSpace(3, 5), BallSpace(3, 1.0, 5)])
def test_coupled_grid_matches_materialised_rules(space):
    """The radial x block grid contracted one axis at a time against means
    over simplex_rule's nodes: sum_r W_r a(r) sum_s W_s b(r, s), each sum
    over the sum of its weights."""
    a, b = parse("r1^2*r2/(1+r1^2+r2^2)"), parse("s1^2*r2 + s2/(1+r1^2)")
    spec = QuadratureSpec(order=24)
    e, exps, b0 = (1.5, 0.5), (0.5,), 1.0
    projective = isinstance(space, ProjectiveSpace)
    # on P^n the radial rule's a0 is N - ell - 1 - sum(e)
    a0 = space.n + space.m + 1 - 2 - 1 - sum(e) if projective else space.lam
    X, W = simplex_rule(2, e, a0, spec.order)
    rho = np.sqrt(X / (1.0 - X.sum(axis=-1, keepdims=True)) if projective
                  else X)
    S, Wb = simplex_rule(1, exps, b0, spec.order)
    radii = {"r1": rho[:, 0, None], "r2": rho[:, 1, None]}
    cosines = {"s1": np.sqrt(S[None, :, 0]), "s2": np.sqrt(1 - S[None, :, 0])}
    inner = evaluate(b, {**radii, **cosines}) @ Wb / np.sum(Wb)
    want = np.sum(W * evaluate(a, {"r1": rho[:, 0], "r2": rho[:, 1]}) * inner)
    want /= np.sum(W)
    coupled = [(b, *gamma_module._block_rule(2, exps, b0, spec))]
    got, = gamma_module._radial_value(space, [a], coupled, e, a0, spec)
    assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("psi, space, k", [
    # t_extended's symbol: r1^2/(1+r1^2) is no monomial on k=(2,1)
    (Product((QuasiRadial("r1^2/(1+r1^2)"),
              ExtendedFactor(0, "s1^2 + r1^2/(1+r1^2)", (1, -1)))),
     ProjectiveSpace(3, 10), Partition((2, 1))),
    (QuasiRadial("exp(-r1^2)"), ProjectiveSpace(3, 6), Partition((1, 1, 1))),
])
def test_projective_radial_rests_match_materialised_rules(psi, space, k,
                                                          monkeypatch):
    """Every radial integral of a P^n table, one simplex_integrate call on
    the space's roots, is the mean of each rest over simplex_rule's nodes
    at its key (e, a0), rho_j^2 = X_j / (1 - sum X), to 1e-14."""
    calls, radial_value = [], gamma_module._radial_value

    def record(*args):
        calls.append((args, radial_value(*args)))
        return calls[-1][1]

    monkeypatch.setattr(gamma_module, "_radial_value", record)
    build_gamma_table(psi, space, k, SPEC)
    assert calls
    for (_, rests, coupled, e, a0, _), got in calls:
        assert not coupled
        X, W = simplex_rule(len(e), e, a0, SPEC.order)
        rho = np.sqrt(X / (1.0 - X.sum(axis=-1, keepdims=True)))
        env = {f"r{j + 1}": rho[:, j] for j in range(len(e))}
        want = [0.0 if rest is None else
                np.sum(W * evaluate(rest, env)) / np.sum(W) for rest in rests]
        assert np.allclose(got, want, rtol=1e-14, atol=0)


ENGINE = ("_values", "_quadrature", "_radial_value", "_mc_value")


def test_engine_reads_the_space_not_its_type():
    """The engine's functions branch on no space type: what tells P^n and
    the ball apart is the space's a0 and radial_roots.  Nor does
    gamma import the P^n radial kernel."""
    tree = ast.parse(Path(gamma_module.__file__).read_text())
    bodies = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name in ENGINE}
    assert set(bodies) == set(ENGINE)
    for name, body in bodies.items():
        for node in ast.walk(body):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"):
                kinds = {n.id for n in ast.walk(node.args[1])
                         if isinstance(n, ast.Name)}
                assert not kinds & {"ProjectiveSpace", "BallSpace"}, name
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "radial_integrate_projective" not in imported
    assert "radial_integrate_projective" not in {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
# run_path compiles from source, so nothing is written under benchmarks/
JOBS = runpy.run_path(str(BENCH / "jobs.py"))
BENCH_GAMMA_JOBS = {j["name"]: j for j in JOBS["TABLES"] + JOBS["VERIFY"]
                    if j["command"] == "gamma"}


@pytest.mark.parametrize("name", sorted(BENCH_GAMMA_JOBS))
def test_table_builds_the_rules_of_the_per_alpha_path(name, tmp_path,
                                                      monkeypatch):
    """Each benchmark gamma job builds the same (a, b, q) Jacobi rules with
    the table's batched build as when every kernel builds its own, each
    rule once and in batches, and writes the same bytes."""
    built = []
    golub_welsch = quadrature._golub_welsch

    def record(a, b, q):
        built.append([(x, y, q) for x, y in zip(a, b)])
        return golub_welsch(a, b, q)

    monkeypatch.setattr(quadrature, "_golub_welsch", record)
    config = JOBS["config_for"](BENCH_GAMMA_JOBS[name], 0)
    q = config["quadrature"]["order"]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))

    def run(out):
        built.clear()
        monkeypatch.setattr(quadrature, "_rules", {})
        assert main(["gamma", "--config", str(cfg), "--out", str(out)]) == 0
        return [key for batch in built for key in batch], len(built)

    with monkeypatch.context() as mp:
        mp.setattr(gamma_module, "build_jacobi_rules", lambda *args: None)
        alone, _ = run(tmp_path / "alone.csv")
    batched, calls = run(tmp_path / "batched.csv")
    assert len(set(alone)) == len(alone) == len(batched) == len(set(batched))
    assert set(batched) == set(alone)
    assert calls == math.ceil(len(batched) / (quadrature._BATCH_DOUBLES
                                              // q**2))
    assert ((tmp_path / "alone.csv").read_bytes()
            == (tmp_path / "batched.csv").read_bytes())


def test_l3_table_memory_is_bounded(monkeypatch):
    """The l=3, m=10 quasi-radial table, 286 alpha on a 64 000-node grid
    each: 2.6 MB traced peak with per-axis factors, 6.3 MB when every
    alpha materialised its rule."""
    monkeypatch.setattr(quadrature, "_rules", {})
    psi = QuasiRadial("r1^2*r2/(1+r1^2+r2^2+r3^2)")
    tracemalloc.start()
    try:
        table = build_gamma_table(psi, ProjectiveSpace(3, 10),
                                  Partition((1, 1, 1)), SPEC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.entries) == 286
    assert peak < 4 * 2**20


# ------------------------------- Dirichlet monomials taken axis by axis

def _refuse(*args):
    raise AssertionError("not to be called")


def test_l3_table_takes_its_monomial_per_axis(monkeypatch):
    """r1^2 r2/(1+r1^2+r2^2+r3^2) is U_1 U_2^(1/2) U_0^(-1/2) on k=(1,1,1):
    without a grid, each gamma is its mean on the tensor grid, the radial
    rule at e = alpha, N = n + m + 1."""
    a, m = parse("r1^2*r2/(1+r1^2+r2^2+r3^2)"), 4
    with monkeypatch.context() as mp:
        mp.setattr(gamma_module, "simplex_integrate", _refuse)
        mp.setattr(quadrature, "simplex_integrate", _refuse)
        table = build_gamma_table(QuasiRadial(a), ProjectiveSpace(3, m),
                                  Partition((1, 1, 1)), SPEC)
    for alpha, got in table.entries.items():
        want = quadrature.radial_integrate_projective(
            lambda r: evaluate(a, dict(zip(("r1", "r2", "r3"), r))), 3,
            alpha, 3 + m + 1, SPEC)
        assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("a, b", [
    # t_extended_ball's symbol: s1^2 closes and the radial factor is none
    ("r1^2/(1+r1^2)", "s1^2 + r1^2/(1+r1^2)"),
    # s2 and r1 r2^3 are monomials, taken per axis
    ("r1*r2^3", "s2 + r1^2/(1+r1^2)"),
])
def test_ball_table_takes_its_monomials_per_axis(a, b, monkeypatch):
    """On the ball, r_j^2 = U_j: the table equals its coupled grid, where
    every integral is a tensor sum, entry by entry."""
    k, space = Partition((2, 1)), BallSpace(3, 1.0, 8)
    psi = Product((QuasiRadial(a), ExtendedFactor(0, b, (1, -1))))
    split = build_gamma_table(psi, space, k, SPEC).values
    monkeypatch.setattr(gamma_module, "_block_terms", lambda *args: None)
    monkeypatch.setattr(quadrature, "monomial_means", _refuse)
    coupled = build_gamma_table(psi, space, k, SPEC).values
    assert np.any(coupled != 0)
    assert np.allclose(split, coupled, rtol=1e-14, atol=0)


# ruled terms whose grid sums overflow or divide by an underflowed power at
# some weights, and are finite at others, with their powers (u, v) of
# r1^2, r2^2
RULED_TERMS = {"r2^41": (0, 20.5), "1/r2^41": (0, -20.5),
               "(r2^64)^3": (0, 96), "1/(r2^64)^9": (0, -288),
               "(r2^64)^20": (0, 640), "1/(r2^64)^20": (0, -640),
               "(r1^64)^20*r2": (640, 0.5),
               "(r1^64)^40/(r2^64)^40": (1280, -1280)}


def _diverges(space, alpha, u, v):
    """Whether r1^2u r2^2v has no mean under the weight of alpha on k=(1,1):
    r^alpha (1+r1+r2)^-(m+3) on P^2 (also at infinity), x^alpha on the
    ball, x_j = r_j^2."""
    a1, a2 = alpha
    return min(a1 + u, a2 + v) <= -1 or (
        isinstance(space, ProjectiveSpace) and space.m - a1 - a2 - u - v <= -1)


@pytest.mark.parametrize("m, a", [(1000, 333), (3000, 1000)])
def test_ruled_terms_fail_where_the_grid_fails(m, a):
    """At the large weights above, each monomial of the radii, taken per
    axis, is its tensor grid sum where its integral converges, without a
    RuntimeWarning (to 1e-12: powers up to 2560 round that many ulps
    apart); where it diverges, gamma is inf, whatever the grid sums to."""
    space = ProjectiveSpace(2, m)
    for source, (u, v) in RULED_TERMS.items():
        term = parse(source)
        got = gamma_quasi_radial(term, Partition((1, 1)), m, (a, a), SPEC)
        if _diverges(space, (a, a), u, v):
            assert got == math.inf
            continue
        want = float(quadrature.radial_integrate_projective(
            lambda r: evaluate(term, {"r1": r[0], "r2": r[1]}), 2, (a, a),
            m + 3, SPEC))
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("space, errors", [
    (ProjectiveSpace(2, 30), {EvalError, DomainError}),
    (BallSpace(2, 0.5, 30), {EvalError})])
def test_ruled_tables_raise_where_the_grid_raises(space, errors,
                                                  monkeypatch):
    """A table of each ruled term is refused, naming its first alpha whose
    integral diverges, where there is one; else it equals the table that
    takes every term on the tensor grid to 1e-12.  That grid table raises
    errors (EvalError for a divisor that underflows to zero, DomainError
    for a sum that is not finite) for some of the refused terms, and sums
    the others to finite values."""
    def table(term):
        try:
            return build_gamma_table(QuasiRadial(term), space,
                                     Partition((1, 1)), SPEC).values
        except (EvalError, DomainError) as exc:
            return exc

    basis = [tuple(a) for a in enumerate_basis(2, space.degree).tolist()]
    got = [table(term) for term in RULED_TERMS]
    monkeypatch.setattr(gamma_module, "dirichlet_form", lambda e, _: ([], e))
    grid = [table(term) for term in RULED_TERMS]
    assert {type(w) for w in grid if isinstance(w, Exception)} == errors
    for g, w, (u, v) in zip(got, grid, RULED_TERMS.values()):
        bad = [a for a in basis if _diverges(space, a, u, v)]
        if bad:
            assert isinstance(g, DomainError)
            assert str(g) == f"gamma{bad[0]} = inf is not finite"
        else:
            assert np.allclose(g, w, rtol=1e-12, atol=0)


@pytest.mark.parametrize("psi, k", [
    (QuasiRadial("(1-exp(-r1^2))/r1^2"), Partition((1, 1))),
    (ExtendedFactor(0, "(1-exp(-s1^2))/s1^2", (0, 0)), Partition((2,))),
    # a = 1/r1^2 times b's radial terms 1 and -exp(-r1^2)
    (Product((QuasiRadial("1/r1^2"),
              ExtendedFactor(1, "(1-exp(-r1^2))*s1^2", (0, 0)))),
     Partition((1, 2))),
    # b's angular terms 1/s1^2 and -exp(-s1^2)/s1^2, times a radial
    # factor with a mean at every weight
    (ExtendedFactor(0, "r1^2/(1+r1^2+r2^2)*(1-exp(-s1^2))/s1^2", (0, 0)),
     Partition((2, 1))),
])
def test_divergent_monomial_beside_a_term_that_cancels_it(psi, k,
                                                          monkeypatch):
    """1/y diverges at the weight of alpha_1 = 0, but (1 - exp(-y))/y,
    which it is a term of, is bounded: its table, whether the terms sit in
    a, in a block's b, or in products of a with b's terms, is finite and is
    the table that takes every term on the tensor grid, to 1e-12, on P^n
    and the ball."""
    degree = 30 if k.n == 2 else 8
    for space in (ProjectiveSpace(k.n, degree), BallSpace(k.n, 0.5, degree)):
        got = build_gamma_table(psi, space, k, SPEC).values
        with monkeypatch.context() as patch:
            patch.setattr(gamma_module, "dirichlet_form", lambda e, _: ([], e))
            want = build_gamma_table(psi, space, k, SPEC).values
        assert np.allclose(got, want, rtol=1e-12, atol=0)


MC_SPEC = QuadratureSpec(method="monte-carlo", order=1000, seed=1)
_P2 = {"type": "projective", "n": 2, "m": 30}
_BALL2 = {"type": "ball", "n": 2, "lambda": 0.5, "cap": 30}
_INV_R1 = {"kind": "quasi-radial", "a": "1/r1^2"}
_MC = {"method": "monte-carlo", "order": MC_SPEC.order, "seed": MC_SPEC.seed}


@pytest.mark.parametrize("space, partition, symbol, quadrature", [
    (_P2, [1, 1], _INV_R1, None),
    (_BALL2, [1, 1], _INV_R1, None),
    (_P2, [1, 1], _INV_R1, _MC),
    (_BALL2, [1, 1], _INV_R1, _MC),
    (_P2, [2], {"kind": "multi-sphere", "block": 1, "b": "1/s1^2",
                "p": [0, 0]}, _MC)],
    ids=["space0", "space1", "mc-space0", "mc-space1", "mc-block"])
def test_divergent_symbol_exits_3(space, partition, symbol, quadrature,
                                  tmp_path, capsys):
    """1/r1^2 has no mean at alpha_1 = 0 on either space, nor 1/s1^2 in a
    block's b; the table is refused, naming gamma(0, 0), and not written.
    Monte Carlo refuses what quadrature refuses, before drawing."""
    cfg, out = tmp_path / "c.json", tmp_path / "g.csv"
    cfg.write_text(json.dumps({
        "space": space, "partition": partition, "symbols": [symbol],
        **({"quadrature": quadrature} if quadrature else {})}))
    assert main(["gamma", "--config", str(cfg), "--out", str(out)]) == 3
    assert "gamma(0, 0) = inf is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_monte_carlo_keeps_a_divergent_monomial_that_a_rest_cancels():
    """(1 - exp(-r1^2))/r1^2 splits into 1/r1^2 and a rest, and is bounded:
    its Monte Carlo table builds, within 5% of the quadrature table."""
    args = (QuasiRadial("(1-exp(-r1^2))/r1^2"), ProjectiveSpace(2, 30),
            Partition((1, 1)))
    got = build_gamma_table(*args, MC_SPEC).values
    want = build_gamma_table(*args, SPEC).values
    assert np.allclose(got, want, rtol=0.05, atol=0)


@pytest.mark.parametrize("psi, k", [
    (QuasiRadial("1/r1"), (1, 1)),
    (QuasiRadial("r1^2/(1+r1^2)"), (1, 1)),
    (MultiSphereFactor(0, "s1^2 + s2", (1, -1)), (2,)),
    (MultiSphereFactor(0, "1/s1", (1, -1)), (2,)),
    # r2^2 r1^-1 = x2 x1^-1/2 x0^-1/2 on P^n: a mean at every weight
    (Product((QuasiRadial("r2^2/r1^2"), ExtendedFactor(1, "r1*s1", (0, 0)))),
     (1, 2)),
    (Product((QuasiRadial("1/r1"), MultiSphereFactor(1, "s1^2", (1, -1)))),
     (1, 2))])
def test_convergent_monte_carlo_tables_are_bitwise_unrefused(psi, k,
                                                             monkeypatch):
    """Where no row diverges, the divergence test moves no draw: each table
    is bitwise the table drawn with the test switched off, on P^n and the
    ball."""
    k = Partition(k)
    for space in (ProjectiveSpace(k.n, 6), BallSpace(k.n, 0.5, 6)):
        got = build_gamma_table(psi, space, k, MC_SPEC).values
        with monkeypatch.context() as patch:
            patch.setattr(quadrature, "diverges",
                          lambda c, x: np.zeros(len(x), dtype=bool))
            want = build_gamma_table(psi, space, k, MC_SPEC).values
        assert got.tobytes() == want.tobytes()


def _qr(a):
    return {"kind": "quasi-radial", "a": a}


def _ext(block, b, kind="extended"):
    return {"kind": kind, "block": block, "b": b, "p": [0, 0]}


# symbols with the partition they live on and the alpha each space refuses
# first (P^n at m = 6, the ball at cap 6), None where the table builds
PARITY_SYMBOLS = {
    # 1/r1^2 = x0/x1 has no mean at alpha_1 = 0, beside a rest in block 2
    "inv-r1-times-exp-s1": (
        [_qr("1/r1^2"), _ext(2, "exp(s1)", "multi-sphere")], [1, 2],
        (0, 0, 0), (0, 0, 0)),
    # ... and times a block factor whose radial term r2 joins a in one
    # family of monomials
    "inv-r1-times-r2-s1": ([_qr("1/r1^2"), _ext(2, "r2*s1^2")], [1, 2],
                           (0, 0, 0), (0, 0, 0)),
    # r1^2 = x1/x0 on P^n has no mean at |alpha| = m, beside a block rest
    "r1-times-cancelling-s1": ([_ext(1, "r1^2*(1-exp(-s1^2))/s1^2")], [2, 1],
                               (0, 0, 6), None),
    # r1^3 = x1^3/2 x0^-3/2 on P^n, no mean at |alpha| = m
    "r1-cubed": ([_qr("r1^2"), _ext(2, "r1*s1")], [1, 2], (0, 0, 6), None),
    "inv-r1": ([_qr("1/r1^2")], [1, 2], (0, 0, 0), (0, 0, 0)),
    "inv-s1": ([_ext(2, "1/s1^2", "multi-sphere")], [1, 2], (0, 0, 0),
               (0, 0, 0)),
    # a literal negative power is a divisor: r1^-2 is 1/r1^2 ...
    "inv-r1-literal-power": ([_qr("r1^-2")], [1, 2], (0, 0, 0), (0, 0, 0)),
    # ... which a rest in its own family cancels
    "cancel-literal-power": ([_qr("(1-exp(-r1^2))*r1^(-2)")], [1, 1], None,
                             None),
    # the four cancellations of
    # test_divergent_monomial_beside_a_term_that_cancels_it
    "cancel-in-a": ([_qr("(1-exp(-r1^2))/r1^2")], [1, 1], None, None),
    "cancel-in-b": ([_ext(1, "(1-exp(-s1^2))/s1^2")], [2], None, None),
    "cancel-in-a-times-b": ([_qr("1/r1^2"),
                             _ext(2, "(1-exp(-r1^2))*s1^2")], [1, 2],
                            None, None),
    "cancel-in-b-angular": (
        [_ext(1, "r1^2/(1+r1^2+r2^2)*(1-exp(-s1^2))/s1^2")], [2, 1],
        None, None),
}


@pytest.mark.parametrize("ball", [False, True], ids=["projective", "ball"])
@pytest.mark.parametrize("name", sorted(PARITY_SYMBOLS))
def test_both_methods_refuse_the_same_divergent_row(name, ball, tmp_path,
                                                    capsys):
    """Quadrature and Monte Carlo (1000 samples) either both build the
    table or both exit 3 naming the same alpha: the first alpha where a
    family of means with no rest diverges."""
    symbols, partition, on_pn, on_ball = PARITY_SYMBOLS[name]
    n = sum(partition)
    space = ({"type": "ball", "n": n, "lambda": 0.5, "cap": 6} if ball
             else {"type": "projective", "n": n, "m": 6})
    outcomes = []
    for quadrature_cfg in ({}, _MC):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "space": space, "partition": partition, "symbols": symbols,
            "quadrature": quadrature_cfg}))
        code = main(["gamma", "--config", str(cfg), "--out",
                     str(tmp_path / "g.csv")])
        outcomes.append((code, capsys.readouterr().err))
    refused = on_ball if ball else on_pn
    assert outcomes[0] == outcomes[1] == (
        (0, "") if refused is None
        else (3, f"error: gamma{refused} = inf is not finite\n"))


# each power of a radius or cosine in [-4, 4]: a half-integer exponent in
# [-2, 2] over the barycentric coordinates
POWERS = st.integers(-4, 4)


def _power_source(powers: dict) -> str:
    """prod v^p over powers, the negative ones as one divisor."""
    num = "*".join(f"{v}^{p}" for v, p in powers.items() if p > 0) or "1"
    den = "*".join(f"{v}^{-p}" for v, p in powers.items() if p < 0)
    return f"({num})/({den})" if den else num


def _refused_by_exponents(space, k, c, d):
    """Whether each basis row has no mean, for r^c (c_j the total power of
    r_j; None for a radial rest, which refuses nothing) times, in each
    block j of d, prod_l s_l^d[j][l]: r_j^2 is x_j, or x_j / x_0 on P^n,
    under x^e x_0^a0, e_j = |alpha_(j)| + k_j - 1, a0 = m - |alpha| on P^n,
    and s_l^2 = y_l under the block weight y^alpha_(j); a power x^u under
    x^w has no mean where u + w <= -1."""
    rows = []
    for alpha in enumerate_basis(k.n, space.degree).tolist():
        low = [a + p / 2 for j, powers in d.items()
               for a, p in zip(k.block(alpha, j), powers)]
        if c is not None:
            low += [sum(k.block(alpha, j)) + kj - 1 + c[j] / 2
                    for j, kj in enumerate(k.parts)]
        if c is not None and isinstance(space, ProjectiveSpace):
            low.append(space.m - sum(alpha) - sum(c) / 2)
        rows.append(min(low, default=0) <= -1)
    return np.array(rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_both_methods_refuse_the_rows_of_the_exponent_rule(data):
    """A quasi-radial product of powers of the radii times, on some
    blocks, an extended factor of powers of the radii and of the block's
    cosines, each maybe times an exp(.) rest, on P^n (n <= 3, m <= 4) or
    the ball (cap <= 3): quadrature and Monte Carlo (100 samples) give inf,
    a refusal, at the same rows.  Where no factor has a rest, these are the
    rows of the exponent rule above; else they include the rule's rows of
    the families with no rest: the radial one, unless exp(-r_j) is a
    factor, and each block's cosines, unless exp(s_l) is."""
    k = Partition(data.draw(st.sampled_from(
        [(1,), (2,), (1, 1), (3,), (1, 2), (2, 1), (1, 1, 1)])))
    space = data.draw(st.sampled_from(
        [ProjectiveSpace(k.n, m) for m in range(1, 5)]
        + [BallSpace(k.n, 0.5, cap) for cap in range(1, 4)]))
    radii = [f"r{j + 1}" for j in range(k.num_blocks)]
    a = {v: data.draw(POWERS) for v in radii}
    c = np.array(list(a.values()), dtype=float)
    a_source, radial_rest = _power_source(a), data.draw(st.booleans())
    if radial_rest:
        a_source += f"*exp(-{data.draw(st.sampled_from(radii))})"
    factors, d = [], {}
    for j, kj in enumerate(k.parts):
        if not data.draw(st.booleans()):
            continue
        b = {v: data.draw(POWERS) for v in radii}
        c += list(b.values())
        cosines = [f"s{l + 1}" for l in range(kj)] if kj > 1 else []
        powers = [data.draw(POWERS) for _ in cosines]
        source = _power_source({**b, **dict(zip(cosines, powers))})
        if data.draw(st.booleans()):
            v = data.draw(st.sampled_from(cosines + radii))
            radial_rest |= v in radii
            source += f"*exp(-{v})" if v in radii else f"*exp({v})"
            if v in radii:
                d[j] = powers
        else:
            d[j] = powers
        factors.append(ExtendedFactor(j, source, (0,) * kj))
    psi = Product((QuasiRadial(a_source), *factors))
    a_expr, blocks, p = gamma_module._split_product(psi, k, ExtendedFactor)
    basis = enumerate_basis(k.n, space.degree)
    refused = []
    for spec in (QuadratureSpec(order=10),
                 QuadratureSpec(method="monte-carlo", order=100, seed=1)):
        with np.errstate(all="ignore"):
            values = gamma_module._values(space, a_expr, blocks, k, p,
                                          basis, spec)
        refused.append(values == np.inf)
    assert np.array_equal(refused[0], refused[1])
    want = _refused_by_exponents(space, k, None if radial_rest else c, d)
    if radial_rest or len(d) < len(factors):
        # a rest refuses nothing in its own family, nor stops another's
        assert np.all(refused[0] >= want)
    else:
        assert np.array_equal(refused[0], want)


def test_one_divergence_test_before_the_method_branch():
    """quadrature.diverges has a single caller in gamma.py, and _values
    reaches it before it branches on the quadrature method."""
    tree = ast.parse(Path(gamma_module.__file__).read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}

    def calls(fn, match):
        return [node.lineno for node in ast.walk(fn)
                if isinstance(node, ast.Call) and match(node.func)]

    def is_diverges(f):
        return (isinstance(f, ast.Attribute) and f.attr == "diverges"
                and isinstance(f.value, ast.Name)
                and f.value.id == "quadrature")

    callers = {name: lines for name, fn in functions.items()
               if (lines := calls(fn, is_diverges))}
    assert [len(lines) for lines in callers.values()] == [1]
    assert "diverges" not in {node.id for node in ast.walk(tree)
                              if isinstance(node, ast.Name)}
    [(caller, [line])] = callers.items()
    values = functions["_values"]
    method = min(node.lineno for node in ast.walk(values)
                 if isinstance(node, ast.Attribute) and node.attr == "method")
    branch = min(node.lineno for node in ast.walk(values)
                 if isinstance(node, ast.If) and node.lineno >= method)
    if caller != "_values":
        [line] = calls(values, lambda f: isinstance(f, ast.Name)
                       and f.id == caller)
    assert line < branch


def test_all_monomial_radial_products_take_no_grid():
    """(r_j + s1)^6 on each block of k=(2,2,2) is 7 terms a block, and its
    7^3 radial products are monomials on the ball (r_j^2 = U_j), so no grid
    is built and none is held to the q^3 x 343 node budget; every entry is
    within 4 stderr of the Monte Carlo oracle."""
    k, lam = Partition((2, 2, 2)), 1.0
    psi = Product(tuple(ExtendedFactor(j, f"(r{j + 1}+s1)^6", (0, 0))
                        for j in range(3)))
    table = build_gamma_table(psi, BallSpace(6, lam, 1), k, SPEC)
    assert len(table.entries) == 7
    alphas = list(table.entries)
    o = gamma_from_oracle_ball(psi, alphas, table.shift, lam, 6, k,
                               method="monte-carlo", samples=4 * 10**5,
                               seed=3)
    for alpha, value, stderr in zip(alphas, o.value, o.stderr):
        assert abs(table.entries[alpha] - value) <= 4 * stderr


def test_monte_carlo_oracle_is_finite_at_weight_200():
    """At m = 200 on P^2 the rows of grade 1, 100 and 200 are finite and
    within 4 stderr of the engine: R^(alpha+beta) overflows on much of the
    draw and the density C(n+m, n) (1+|R|^2)^-m underflows there, so their
    product is taken in logs and neither is formed alone."""
    psi, k, m = MultiSphereFactor(0, "s1^2", (1, -1)), Partition((2,)), 200
    alphas = [(0, m), (m // 2, m // 2), (0, 1)]
    o = gamma_from_oracle(psi, alphas, (1, -1), m, 2, k,
                          method="monte-carlo", samples=20_000, seed=1)
    table = build_gamma_table(psi, ProjectiveSpace(2, m), k, SPEC)
    for alpha, value, stderr in zip(alphas, o.value, o.stderr):
        assert np.isfinite(value) and 0 < stderr < np.inf
        assert abs(table.entries[alpha] - value) <= 4 * stderr


def test_monte_carlo_oracle_table_at_weight_20():
    """Every row of the table of r1^2/(1+r1^2) s1^2 t^(1,-1) on P^2 at
    m = 20 (210 rows, 10^5 samples, one draw) is within 4 stderr of the
    engine, the rows of grade 11 to 20 too, whose integrand has no finite
    variance under the weight-m measure itself."""
    k, m, p = Partition((2,)), 20, (1, -1)
    psi = Product((QuasiRadial("r1^2/(1+r1^2)"),
                   MultiSphereFactor(0, "s1^2", p)))
    table = build_gamma_table(psi, ProjectiveSpace(2, m), k, SPEC)
    alphas = [a for a in table.entries if a[1] >= 1]
    o = gamma_from_oracle(psi, alphas, p, m, 2, k, method="monte-carlo",
                          samples=10**5, seed=1)
    assert len(alphas) == 210
    for alpha, value, stderr in zip(alphas, o.value, o.stderr):
        assert abs(table.entries[alpha] - value) <= 4 * stderr


def test_ruled_block_monomial_past_the_grid_dimension():
    """s2 on a k=(10,) block is U_2^(1/2) over 9 Duffy axes, past the
    tensor grids' dimension cap: axis by axis it is the Gamma ratio
    G(a_2 + 3/2) G(|a| + 10) / (G(a_2 + 1) G(|a| + 21/2)), to the error of
    the rules on its two ruled axes."""
    alpha = (1, 3) + (0,) * 7 + (1,)
    got = gamma_multisphere_factor(parse("s2"), Partition((10,)), 0,
                                   (0,) * 10, alpha, SPEC)
    size = sum(alpha) + 10
    want = math.exp(math.lgamma(alpha[1] + 1.5) - math.lgamma(alpha[1] + 1)
                    + math.lgamma(size) - math.lgamma(size + 0.5))
    assert got == pytest.approx(want, rel=1e-10)


# ------------------------------------- radial x angular split of the blocks

def _split_grid(q=5):
    """Radii r1, r2 on the first two axes of a coupled grid and block
    cosines s1, s2 on the third, as the engine places them."""
    *x, x0 = quadrature.barycentric(quadrature.simplex_axes(
        2, (0.5, 1.5), 2.0, q)[0])
    radii = {"r1": np.sqrt(x[0] / x0), "r2": np.sqrt(x[1] / x0)}
    x, rest = quadrature.barycentric(quadrature.simplex_axes(
        1, (0.5,), 1.0, q)[0])
    return radii, {"s1": np.sqrt(x), "s2": np.sqrt(rest)}


SPLIT_LEAVES = st.one_of(
    st.sampled_from([Var(v) for v in ("r1", "r2", "s1", "s2")]),
    st.integers(1, 4).map(lambda v: Num(float(v))))
SPLIT_EXPRESSIONS = st.recursive(SPLIT_LEAVES, lambda inner: st.one_of(
    st.builds(BinOp, st.sampled_from("+-*/"), inner, inner),
    st.builds(lambda base, k: BinOp("^", base, Num(float(k))), inner,
              st.integers(1, 3)),
    st.builds(lambda arg: Call("sqrt", arg), inner)), max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(SPLIT_EXPRESSIONS)
def test_split_terms_match_the_coupled_grid(b):
    """sum_t c_t R_t(r) S_t(s) equals b on the coupled grid to 1e-13 of
    sum_t |c_t R_t S_t|, and fails where b fails."""
    terms = gamma_module._block_terms(b, math.inf)
    assume(terms is not None)
    radii, cosines = _split_grid()
    padded = {v: r[..., None] for v, r in radii.items()}

    def parts():
        return [c * np.asarray(evaluate(R or Num(1.0), padded))
                * evaluate(S or Num(1.0), cosines) for c, R, S in terms]

    try:
        want = evaluate(b, {**padded, **cosines})
    except EvalError:
        # a zero divisor or a negative square root stays an error
        with pytest.raises(EvalError):
            parts()
        return
    got = parts()
    assert np.all(np.abs(sum(got) - want) <= 1e-13 * sum(map(np.abs, got)))


@pytest.mark.parametrize("space", [ProjectiveSpace(3, 6),
                                   BallSpace(3, 1.0, 6)])
def test_split_tables_match_the_coupled_grid(space, monkeypatch):
    """Split blocks give the table of the coupled grid, which every block
    takes when none splits."""
    k, spec = Partition((2, 1)), QuadratureSpec(order=20)
    psi = Product((QuasiRadial("r1^2/(1+r1^2)"),
                   ExtendedFactor(0, "(s1 - r2)^2/(1+r1^2) + s2*r1", (1, -1)),
                   ExtendedFactor(1, "s1^2 + r1^2/(1+r1^2)", (0,))))
    split = build_gamma_table(psi, space, k, spec).entries
    monkeypatch.setattr(gamma_module, "_block_terms", lambda *args: None)
    coupled = build_gamma_table(psi, space, k, spec).entries
    scale = max(map(abs, coupled.values()))
    assert scale > 0
    for alpha, want in coupled.items():
        assert abs(split[alpha] - want) <= 1e-13 * scale


@pytest.mark.parametrize("b", ["s1^2 + r1/(r2 - r2)",
                               "r1^2 + s1/(s2 - s2)"])
def test_zero_divisor_in_split_term_raises(b):
    factor = ExtendedFactor(0, b, (0, 0))
    assert gamma_module._block_terms(factor.b, SPEC.order) is not None
    with pytest.raises(EvalError, match="division by zero"):
        build_gamma_table(factor, ProjectiveSpace(3, 2), Partition((2, 1)),
                          SPEC)


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(gamma_module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(gamma_module, name, counted)
    return calls


def test_table_integrates_once_per_distinct_key(monkeypatch):
    """The c_gamma benchmark table: 1771 alpha, of which 1540 are no hard
    zero (alpha_2 >= 1), with 210 block keys (exps, a0_j), whose
    monomials s1^2 and s2 take one call at all of them.  Its radial
    integrand r1^2/(r1^2+r2^2+1) is the coordinate U_1, so no radial key
    is integrated on a grid: the moments take all of them."""
    radial = _count_calls(monkeypatch, "_radial_value")
    means = _count_calls(monkeypatch, "_means")
    psi = Product((QuasiRadial("r1^2/(r1^2+r2^2+1)"),
                   MultiSphereFactor(0, "s1^2 + s2", (1, -1))))
    table = build_gamma_table(psi, ProjectiveSpace(3, 20),
                              Partition((2, 1)), SPEC)
    assert len(table.entries) == 1771
    assert sum(v != 0 for v in table.entries.values()) == 1540
    block = [len(rows) for _, rows, *_ in means if rows.shape[1] == 2]
    assert (len(radial), block) == (0, [210])


def test_radial_quadrature_integrates_once_per_distinct_key(monkeypatch):
    """The t_extended benchmark table keeps radial quadrature, since
    r1^2/(1+r1^2) on k=(2,1) is U_1/(U_0+U_1): one radial integral per
    distinct key (e, a0) of the 220 alpha that are no hard zero, i.e. per
    (|alpha_(1)|, alpha_3) with alpha_2 >= 1; the hard zeros' keys never."""
    radial = _count_calls(monkeypatch, "_radial_value")
    psi = Product((QuasiRadial("r1^2/(1+r1^2)"),
                   ExtendedFactor(0, "s1^2 + r1^2/(1+r1^2)", (1, -1))))
    table = build_gamma_table(psi, ProjectiveSpace(3, 10),
                              Partition((2, 1)), SPEC)
    live = [a for a in enumerate_basis(3, 10) if a[1] >= 1]
    assert sum(v != 0 for v in table.entries.values()) == len(live) == 220
    assert len(radial) == len({(a[0] + a[1], a[2]) for a in live}) == 55


def test_radial_terms_close_one_by_one(monkeypatch):
    """r1^2/(1+r1^2+r2^2) is the coordinate U_1 and closes by its moment,
    r2 = (U_2/U_0)^(1/2) is a monomial taken axis by axis, and only
    1/(1+r2^2), no monomial, goes to the radial rule; the table is the sum
    of the three one-term tables."""
    radial = _count_calls(monkeypatch, "_radial_value")
    space, k = ProjectiveSpace(2, 12), Partition((1, 1))
    rest = parse("1/(1+r2^2)")
    table = build_gamma_table(
        QuasiRadial("r1^2/(1+r1^2+r2^2) + r2 + 1/(1+r2^2)"), space, k, SPEC)
    assert radial and all(rests == [rest] for _, rests, *_ in radial)
    parts = [build_gamma_table(QuasiRadial(a), space, k, SPEC).values
             for a in ("r1^2/(1+r1^2+r2^2)", "r2", "1/(1+r2^2)")]
    assert np.allclose(table.values, sum(parts), rtol=1e-14, atol=0)


def test_witness_product_table_runs_no_coupled_grid(monkeypatch):
    """The fusion witness's product, a single-sphere factor rewritten over
    r and s, splits into radial x angular terms."""
    def refuse(*args):
        raise AssertionError("coupled grid")

    monkeypatch.setattr(gamma_module, "_block_rule", refuse)
    radial = _count_calls(monkeypatch, "_radial_value")
    k = Partition((2, 1))
    table = product_table([QuasiRadial("r1^2/(r1^2 + r2^2)"),
                           SingleSphereFactor(0, "sig1^2", (1, -1))],
                          ProjectiveSpace(3, 16), k, SPEC)
    assert len(table.entries) == 969
    assert 0 < len(radial) < 969


def test_split_terms_merge_like_terms():
    r, s = Var("r1"), Var("s1")
    terms = split_terms(parse("(r1 + s1)^6 - r1^6"))
    want = {frozenset((v, k) for v, k in ((r, 6 - i), (s, i)) if k): c
            for i, c in enumerate([0.0, 6.0, 15.0, 20.0, 15.0, 6.0, 1.0])}
    assert len(terms) == 7
    assert {frozenset(f): c for c, f in terms} == want


def test_block_splits_only_below_its_coupled_grid(monkeypatch):
    """A block splits when its terms are at most the q^(k_j - 1) nodes its
    coupled grid adds per radial node; on k_j = 1 that is one term."""
    b = parse("(r1 + s1)^2")
    assert gamma_module._block_terms(b, 2) is None
    assert len(gamma_module._block_terms(b, 3)) == 3
    radial = parse("(1 + r1)^2")
    assert gamma_module._block_terms(radial, 1) == [(1.0, radial, None)]
    rules = _count_calls(monkeypatch, "_block_rule")
    # on the ball, where r1^2 = U_1 is bounded and its mean converges
    build_gamma_table(ExtendedFactor(0, "(r1 + s1)^2", (0,)),
                      BallSpace(3, 1.0, 3), Partition((1, 1, 1)), SPEC)
    assert rules
    rules.clear()
    build_gamma_table(ExtendedFactor(0, "(r1 + s1)^2", (0, 0)),
                      BallSpace(3, 1.0, 3), Partition((2, 1)), SPEC)
    assert not rules


# ------------------------------- Dirichlet moments of polynomial terms

def _sqrt_env(name, x, over=None):
    """name1, name2 at the coordinates x: name_l^2 = x_l (or x_l/x_over)."""
    return {f"{name}{l + 1}": np.sqrt(x[l] / (1.0 if over is None
                                              else x[over]))
            for l in range(2)}


# the coordinates of each integral, as (size, variables' exponents, env)
DIRICHLET_CONTEXTS = {
    "projective radii": (3, gamma_module._roots("r", 2, 3, 2),
                         lambda x: _sqrt_env("r", x, 2)),
    "ball radii": (3, gamma_module._roots("r", 2, 3),
                   lambda x: _sqrt_env("r", x)),
    "block cosines": (2, gamma_module._roots("s", 2, 2),
                      lambda x: _sqrt_env("s", x)),
    "sphere cosines": (3, gamma_module._roots("sig", 2, 3),
                       lambda x: _sqrt_env("sig", x)),
}
DIRICHLET_LEAVES = st.one_of(
    st.sampled_from([Var(v) for v in ("r1", "r2", "s1", "s2", "sig1",
                                      "sig2")]),
    # sums over every coordinate, some of them, and zero divisors
    st.sampled_from([parse(v) for v in (
        "1/(1 + r1^2 + r2^2)", "r1^2/(2*r1^2 + 2*r2^2 + 2)", "1/(1 + r1^2)",
        "1/(s1^2 + s2^2)", "s1 - s1", "1/(s1 - s1)")]),
    st.integers(1, 4).map(lambda v: Num(float(v))))
DIRICHLET_EXPRESSIONS = st.recursive(DIRICHLET_LEAVES, lambda inner: st.one_of(
    st.builds(BinOp, st.sampled_from("+-*/"), inner, inner),
    st.builds(lambda base, k: BinOp("^", base, Num(float(k))), inner,
              st.integers(1, 3)),
    st.builds(lambda arg: Call("sqrt", arg), inner)), max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(DIRICHLET_EXPRESSIONS, st.sampled_from(sorted(DIRICHLET_CONTEXTS)))
def test_closed_terms_equal_their_monomials(e, context):
    """Every term that is a Dirichlet monomial is c prod x^exps, exps real,
    at interior points of the simplex to 1e-13; a term whose evaluation
    fails is none."""
    size, roots, env = DIRICHLET_CONTEXTS[context]
    x = np.random.default_rng(0).dirichlet(np.ones(size), 16).T
    for c, factors in split_terms(e):
        got = dirichlet_monomial(factors, roots)
        term = monomial(factors)
        try:
            want = c * np.asarray(
                1.0 if term is None else evaluate(term, env(x)))
        except EvalError:
            assert got is None
            continue
        if got is not None:
            scale, exps = got
            value = c * scale * np.prod([xi ** k for xi, k in zip(x, exps)],
                                        axis=0)
            assert np.all(np.abs(value - want) <= 1e-13 * np.abs(want))


def test_dirichlet_form_of_the_benchmark_symbols():
    """The P^n quasi-radial of the benchmarks is U_1 and the block factor
    s1^2 + s2 is the monomials s1^2 = U_1 and s2 = U_2^(1/2); on the ball,
    or with a radius missing from the sum, r1^2/(1+r1^2) is no monomial;
    exponents past the degree an order-40 rule integrates exactly are
    monomials all the same."""
    projective = ProjectiveSpace.radial_roots(2)
    ball = BallSpace.radial_roots(2)
    cosines = gamma_module._roots("s", 2, 2)
    assert dirichlet_form(parse("r1^2/(r1^2+r2^2+1)"), projective) == (
        [(1.0, (1, 0, 0))], None)
    assert dirichlet_form(parse("2*r2^2/(3+3*r1^2+3*r2^2)"), projective) \
        == ([(2 / 3, (0, 1, 0))], None)
    assert dirichlet_form(parse("s1^2 + s2"), cosines) == (
        [(1.0, (1, 0)), (1.0, (0.0, 0.5))], None)
    for roots in (projective, ball):
        a = parse("r1^2/(1+r1^2)")
        assert dirichlet_form(a, roots) == ([], a)
    wide = gamma_module._roots("s", 3, 3)
    assert dirichlet_form(parse("s1^64*s2^64"), wide) == (
        [(1.0, (32, 32, 0))], None)
    assert dirichlet_form(parse("s1^64*s2^64*s3^64"), wide) == (
        [(1.0, (32.0, 32.0, 32.0))], None)


@pytest.mark.parametrize("name", ["t_multisphere_n2", "t_multisphere_n5",
                                  "t_single_sphere", "t_beta"])
def test_polynomial_tables_build_no_jacobi_rule(name, tmp_path, monkeypatch):
    """Every integrand of these benchmark tables is a polynomial in the
    barycentric coordinates of its integral: Dirichlet moments take all."""
    def refuse(*args):
        raise AssertionError("a Jacobi rule was built")

    monkeypatch.setattr(quadrature, "_rules", {})
    monkeypatch.setattr(quadrature, "_golub_welsch", refuse)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(JOBS["config_for"](BENCH_GAMMA_JOBS[name], 0)))
    assert main(["gamma", "--config", str(cfg), "--out",
                 str(tmp_path / "g.csv")]) == 0


def test_closed_block_term_matches_order_80_quadrature():
    """The s1^2 term of c_gamma's block factor s1^2 + s2 by its moment, at
    every block key (exps, a0_j) of the table, against order 80."""
    monomials, rest = dirichlet_form(parse("s1^2 + s2"),
                                     gamma_module._roots("s", 2, 2))
    assert (len(monomials), rest) == (2, None)
    c, exps = monomials[0]
    assert (c, exps) == (1.0, (1, 0))
    keys = sorted({(a[0] + 0.5, a[1] - 0.5) for a in enumerate_basis(3, 20)
                   if a[1] >= 1})
    assert len(keys) == 210
    fine = QuadratureSpec(order=80)
    means = c * quadrature.monomial_means(exps, np.array(keys), SPEC.order)
    for (x, x0), got in zip(keys, means):
        want = simplex_integrate(lambda u: u[0], 1, (x,), x0, fine)
        assert got == pytest.approx(want, rel=1e-14)
