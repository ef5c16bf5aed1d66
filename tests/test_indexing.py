"""Basis enumeration, norms, partitions and shift vectors."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bergtoep.indexing import (
    DomainError,
    Partition,
    basis_rank,
    enumerate_basis,
    gammaln,
    monomial_norm_sq_ball,
    monomial_norm_sq_projective,
)


def test_basis_size_is_binomial():
    for n, m in [(1, 0), (1, 5), (2, 3), (3, 4), (4, 2)]:
        basis = enumerate_basis(n, m)
        assert basis.shape == (math.comb(n + m, n), n)
        assert len(np.unique(basis, axis=0)) == len(basis)
        assert not basis.flags.writeable


def test_basis_graded_lex_order():
    basis = enumerate_basis(2, 2)
    assert basis.tolist() == [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1], [2, 0]]
    degrees = basis.sum(axis=1)
    assert (np.diff(degrees) >= 0).all()
    # lexicographic within each grade, for a wider basis too
    rows = [tuple(a) for a in enumerate_basis(4, 5).tolist()]
    assert rows == sorted(rows, key=lambda a: (sum(a), a))


def test_basis_membership():
    for alpha in enumerate_basis(3, 4):
        assert sum(alpha) <= 4
        assert all(a >= 0 for a in alpha)


@pytest.mark.parametrize("n,m", [(1, 0), (1, 7), (2, 5), (3, 3), (4, 6),
                                 (6, 3), (25, 5)])
def test_basis_rank_round_trip(n, m):
    basis = enumerate_basis(n, m)
    assert np.array_equal(basis_rank(basis, m), np.arange(len(basis)))
    # the rank does not depend on the cap, only membership does
    if m:
        low = enumerate_basis(n, m - 1)
        assert np.array_equal(basis_rank(low, m), np.arange(len(low)))
        assert np.array_equal(basis_rank(basis, m - 1),
                              np.where(basis.sum(axis=1) < m,
                                       np.arange(len(basis)), -1))


def test_basis_rank_is_minus_one_outside():
    assert basis_rank([[0, -1, 1], [2, 2, 1], [-3, 0, 0], [1, 1, 2]],
                      4).tolist() == [-1, -1, -1, 26]
    assert basis_rank((1, 0, 3), 4) == 25  # one alpha, a 0-d result
    assert basis_rank(np.zeros((2, 0, 3), dtype=int), 3).shape == (2, 0)


def test_projective_norm_exact_values():
    # ||z^alpha||^2 = alpha! (m - |alpha|)! / m!
    assert monomial_norm_sq_projective((0,), 3) == Fraction(1)
    assert monomial_norm_sq_projective((1,), 3) == Fraction(1, 3)
    assert monomial_norm_sq_projective((2, 1), 3) == Fraction(2, 6)
    assert monomial_norm_sq_projective((1, 1), 4) == Fraction(2 * 1, 24)


def test_projective_norm_rejects_overflow_degree():
    with pytest.raises(DomainError):
        monomial_norm_sq_projective((3, 1), 3)


def test_ball_norm_matches_gamma_ratio():
    # ||z^alpha||^2 = alpha! Gamma(n+lam+1) / Gamma(n+|alpha|+lam+1)
    val = monomial_norm_sq_ball((1, 0), 0.0, 2)
    assert val == pytest.approx(1.0 * math.gamma(3) / math.gamma(4))
    val = monomial_norm_sq_ball((2, 1), 1.5, 2)
    expect = 2.0 * math.gamma(4.5) / math.gamma(7.5)
    assert val == pytest.approx(expect, rel=1e-13)


def test_partition_blocks():
    k = Partition((2, 1, 3))
    assert k.n == 6
    assert k.num_blocks == 3
    assert k.block_slice(1) == slice(2, 3)
    assert k.block((0, 1, 2, 3, 4, 5), 2) == (3, 4, 5)


def test_partition_rejects_nonpositive_parts():
    with pytest.raises((DomainError, ValueError)):
        Partition((2, 0))


def test_gammaln_scalars_arrays_and_poles():
    assert gammaln(5) == pytest.approx(math.log(24), rel=1e-15)
    assert gammaln(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)
    assert isinstance(gammaln(np.float64(3.5)), float)
    # +inf at the poles and past the float range, where math.lgamma raises
    for x in (0, -1, -7.0, 1e308):
        assert gammaln(x) == math.inf
    x = np.array([[0.5, 1.0, 0.0, 10.0], [-2.5, 10.0, 171.5, 0.5]])
    got = gammaln(x)
    assert got.shape == x.shape and got.dtype == float
    want = [[math.lgamma(0.5), 0.0, math.inf, math.lgamma(10.0)],
            [math.lgamma(-2.5), math.lgamma(10.0), math.lgamma(171.5),
             math.lgamma(0.5)]]
    assert got.tolist() == want


@pytest.mark.parametrize("x", [0, -1, -2.0, -3, 0.5, -0.5, 1, 2, 2.5, 171.5,
                               1e-320, 5e-324, 1e300, 1e306, 1.7e308,
                               float("inf"), float("-inf"), float("nan"),
                               10**6, True, np.float64(3.5)])
def test_gammaln_scalar_path_is_bitwise_the_array_path(x):
    # poles give +inf, and so does a value past the float range
    scalar, array = gammaln(x), gammaln(np.array([x]))
    assert isinstance(scalar, float)
    assert np.float64(scalar).tobytes() == array[0].tobytes()
