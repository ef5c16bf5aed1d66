"""Basis enumeration, norms, partitions and shift vectors."""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergtoep.expr import BinOp, Call, Neg, Num, Var
from bergtoep.gamma import BallSpace, GammaTable, ProjectiveSpace
from bergtoep.indexing import (
    DomainError,
    Partition,
    basis_rank,
    enumerate_basis,
    gammaln,
    gammaln_ratio,
    monomial_norm_sq_ball,
    monomial_norm_sq_projective,
)
from bergtoep.operators import ToeplitzMatrix
from bergtoep.oracle import OracleResult
from bergtoep.quadrature import QuadratureSpec
from bergtoep.symbols import (ExtendedFactor, MultiSphereFactor,
                              PhaseMonomial, Product, QuasiRadial,
                              SingleSphereFactor, ValidationError)


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
    # scalars only: Gamma ratios over arrays are gammaln_ratio's
    with pytest.raises(TypeError):
        gammaln(np.array([0.5, 1.0]))


@pytest.mark.parametrize("x", [0, -1, -2.0, -3, 0.5, -0.5, 1, 2, 2.5, 171.5,
                               1e-320, 5e-324, 1e300, 1e306, 1.7e308,
                               float("inf"), float("-inf"), float("nan"),
                               10**6, True, np.float64(3.5)])
def test_gammaln_is_lgamma_or_inf(x):
    # poles give +inf, and so does a value past the float range
    try:
        want = math.lgamma(float(x))
    except (ValueError, OverflowError):
        want = math.inf
    got = gammaln(x)
    assert isinstance(got, float)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# x an integer or half-integer in [1, 10^6]
HALVES = st.integers(2, 2 * 10**6).map(lambda v: v / 2)


@settings(max_examples=200, deadline=None)
@given(x=HALVES, data=st.data())
def test_gammaln_ratio_is_mpmaths(x, data):
    """log Gamma(x + d) - log Gamma(x) to 8 ulps of max(|result|, 1), an
    ulp being 2^-52 of it, for d a half-integer or a real in [-0.9, 50]
    with x + d >= 1.  The worst seen on a dense sample is 6.3, at x = 1,
    d = 2.8, where d log(x + 10 + d) rounds at five times the result's
    size; a difference of gammaln values would miss by ulps of gammaln(x),
    some 10^6 ulps of the result at x = 10^6."""
    mpmath = pytest.importorskip("mpmath")
    d = data.draw(st.one_of(
        st.integers(2 - int(2 * x), 100).map(lambda v: v / 2),
        st.floats(-0.9, 50).filter(lambda d: x + d >= 1)))
    with mpmath.workdps(30):
        want = float(mpmath.loggamma(mpmath.mpf(x) + mpmath.mpf(d))
                     - mpmath.loggamma(x))
    got = gammaln_ratio(x, d)
    assert abs(got - want) <= 8 * 2.0**-52 * max(abs(want), 1)


def test_gammaln_ratio_of_a_zero_shift_is_zero():
    x = np.array([1, 1.5, 2, 40.5, 3e4, 1e6])
    assert np.all(gammaln_ratio(x, 0.0) == 0)
    assert np.all(gammaln_ratio(x, np.zeros(6)) == 0)
    assert gammaln_ratio(7, 0) == 0


# every value class: a builder of one instance, and its repr text
RECORDS = [
    (lambda: Num(1.0), "Num(value=1.0)"),
    (lambda: Var("x"), "Var(name='x')"),
    (lambda: Neg(Var("x")), "Neg(operand=Var(name='x'))"),
    (lambda: BinOp("*", Num(1.0), Var("x")),
     "BinOp(op='*', left=Num(value=1.0), right=Var(name='x'))"),
    (lambda: Call("exp", Var("x")), "Call(func='exp', arg=Var(name='x'))"),
    (lambda: Partition([2, 1]), "Partition(parts=(2, 1))"),
    (lambda: QuadratureSpec(order=5),
     "QuadratureSpec(method='gauss-jacobi-tensor', order=5, seed=0)"),
    (lambda: QuasiRadial("r1"), "QuasiRadial(a=Var(name='r1'))"),
    (lambda: MultiSphereFactor(0, "s1", [1, -1]),
     "MultiSphereFactor(j=0, b=Var(name='s1'), p=(1, -1))"),
    (lambda: SingleSphereFactor(0, "sig1", (1, -1)),
     "SingleSphereFactor(j=0, b=Var(name='sig1'), p=(1, -1))"),
    (lambda: ExtendedFactor(0, "r1", (0, 0)),
     "ExtendedFactor(j=0, b=Var(name='r1'), p=(0, 0))"),
    (lambda: PhaseMonomial((1, -1)), "PhaseMonomial(p=(1, -1))"),
    (lambda: Product([PhaseMonomial((1, -1))]),
     "Product(factors=(PhaseMonomial(p=(1, -1)),))"),
    (lambda: ProjectiveSpace(2, 3), "ProjectiveSpace(n=2, m=3)"),
    (lambda: BallSpace(2, 0.5, 3), "BallSpace(n=2, lam=0.5, cap=3)"),
    (lambda: GammaTable(ProjectiveSpace(1, 1), Partition((1,)), (0,),
                        np.array([1, 2j]), "note"),
     "GammaTable(space=ProjectiveSpace(n=1, m=1), partition=Partition("
     "parts=(1,)), shift=(0,), values=array([1.+0.j, 0.+2.j]), "
     "annotation='note')"),
    (lambda: ToeplitzMatrix(np.array([1j]), np.array([0]), (0,),
                            ProjectiveSpace(1, 0)),
     "ToeplitzMatrix(weights=array([0.+1.j]), target=array([0]), "
     "shift=(0,), space=ProjectiveSpace(n=1, m=0))"),
    (lambda: OracleResult(1 + 2j, 0.5, "monte-carlo", 100),
     "OracleResult(value=(1+2j), stderr=0.5, method='monte-carlo', "
     "samples_or_points=100)"),
]


@pytest.mark.parametrize("make, text", RECORDS,
                         ids=[text.split("(")[0] for _, text in RECORDS])
def test_value_classes_are_frozen_records(make, text):
    """Equal fields give equal records with equal hashes (a record with an
    array field has no hash); fields can be neither assigned nor deleted;
    the repr names the class and each field; a pickle round trip, after
    hashing, gives an equal record; replace with no change gives an equal
    record."""
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert repr(a) == text
    if type(a).__hash__ is None:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b and repr(a) == text
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and repr(copy) == text
    assert a.replace() == a


def test_records_equal_only_their_own_class():
    """The three angular factor classes share their fields, not equality."""
    made = [cls(0, "s1^2", (1, -1)) for cls in
            (MultiSphereFactor, SingleSphereFactor, ExtendedFactor)]
    for x in made:
        for y in made:
            assert (x == y) is (type(x) is type(y))
    assert Num(1.0) != 1.0 and Var("x") != "x"


def test_record_replace_validates_again():
    psi = PhaseMonomial((1, -1))
    assert psi.replace(p=(2, -2)) == PhaseMonomial((2, -2))
    with pytest.raises(ValidationError):
        psi.replace(p=(1, 0))
    with pytest.raises(TypeError):
        psi.replace(q=(1, -1))
    assert QuadratureSpec(order=5).replace(seed=3) == QuadratureSpec(
        "gauss-jacobi-tensor", 5, 3)
