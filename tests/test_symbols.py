"""Symbol model: validation, evaluation, conjugation, phase invariance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergtoep.indexing import Partition
from bergtoep.symbols import (
    ExtendedFactor,
    MultiSphereFactor,
    PhaseMonomial,
    Product,
    QuasiRadial,
    SingleSphereFactor,
    ValidationError,
    conjugate,
    evaluate_symbol,
    evaluate_symbol_batch,
    flatten,
    row_sum,
    total_shift,
    validate_product,
)

K21 = Partition((2, 1))


def test_block_shift_must_sum_to_zero():
    with pytest.raises(ValidationError):
        MultiSphereFactor(0, "1", (1, 0))
    with pytest.raises(ValidationError):
        PhaseMonomial((1, 1, -1))
    MultiSphereFactor(0, "1", (2, -2))  # fine


def test_validate_product_structure():
    ok = Product((QuasiRadial("r1"), MultiSphereFactor(0, "s1", (1, -1)),
                  SingleSphereFactor(1, "sig1", (0,))))
    validate_product(ok, K21)
    with pytest.raises(ValidationError):
        validate_product(Product((QuasiRadial("r1"), QuasiRadial("r2"))), K21)
    with pytest.raises(ValidationError):
        validate_product(Product((MultiSphereFactor(0, "1", (1, -1)),
                                  MultiSphereFactor(0, "s1", (0, 0)))), K21)
    with pytest.raises(ValidationError):
        validate_product(MultiSphereFactor(0, "1", (1, 0, -1)), K21)
    with pytest.raises(ValidationError):
        validate_product(MultiSphereFactor(5, "1", (0, 0)), K21)
    with pytest.raises(ValidationError):
        validate_product(PhaseMonomial((1, -1)), K21)


def test_total_shift_accumulates_blocks_and_phases():
    psi = Product((
        MultiSphereFactor(0, "1", (1, -1)),
        SingleSphereFactor(1, "1", (0,)),
        PhaseMonomial((0, 1, -1)),
    ))
    assert total_shift(psi, K21) == (1, 0, -1)


def test_quasi_radial_evaluation():
    a = QuasiRadial("r1^2/(r1^2 + r2^2)")
    z = np.array([3.0, 4.0, 5.0], dtype=complex)  # r1=5, r2=5
    assert evaluate_symbol(a, z, K21) == pytest.approx(0.5)


def test_multisphere_evaluation():
    psi = MultiSphereFactor(0, "s1^2", (1, -1))
    z = np.array([1.0, 1.0j, 2.0], dtype=complex)
    # s1 = 1/sqrt(2), phases t = (1, i): value = 0.5 * 1 * (i)^(-1)
    assert evaluate_symbol(psi, z, K21) == pytest.approx(0.5 * (-1j))


def test_single_sphere_evaluation_uses_global_cosines():
    psi = SingleSphereFactor(0, "sig1^2 + sig2^2", (0, 0))
    z = np.array([1.0, 1.0, 1.0], dtype=complex)
    assert evaluate_symbol(psi, z, K21) == pytest.approx(2.0 / 3.0)


def test_extended_evaluation_mixes_radii_and_cosines():
    psi = ExtendedFactor(0, "r2 * s1^2", (0, 0))
    z = np.array([1.0, 1.0, 2.0], dtype=complex)
    assert evaluate_symbol(psi, z, K21) == pytest.approx(2 * 0.5)


def test_conjugate_flips_shifts():
    psi = Product((QuasiRadial("r1"), MultiSphereFactor(0, "s1", (2, -2)),
                   PhaseMonomial((1, -1, 0))))
    flipped = [f.p for f in flatten(conjugate(psi))[1:]]
    assert flipped == [(-2, 2), (-1, 1, 0)]
    z = np.array([1 + 1j, 2 - 1j, 0.5j])
    v = evaluate_symbol(psi, z, K21)
    w = evaluate_symbol(conjugate(psi), z, K21)
    assert w == pytest.approx(np.conj(v))


def test_zero_coordinate_conventions():
    psi = Product((MultiSphereFactor(0, "s1", (1, -1)),))
    z = np.zeros(3, dtype=complex)
    # phases of zero coordinates are 1, zero block direction is uniform
    assert evaluate_symbol(psi, z, K21) == pytest.approx(1 / np.sqrt(2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(0, 2 * np.pi))
def test_blockwise_zero_phase_invariance(seed, theta):
    """Blockwise-zero symbols are insensitive to a common phase per block."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi = Product((
        QuasiRadial("r1^2/(1 + r1^2 + r2^2)"),
        MultiSphereFactor(0, "s1^2", (1, -1)),
        ExtendedFactor(1, "r1*r2", (0,)),
    ))
    zt = z.copy()
    zt[:2] *= np.exp(1j * theta)  # common phase on block 0
    Z = np.stack([z, zt])
    v, w = evaluate_symbol_batch(psi, np.abs(Z), np.angle(Z), K21)
    assert abs(v - w) < 1e-12


@pytest.mark.parametrize("psi", [
    SingleSphereFactor(0, "sig1^2", (1, -1)),
    Product((QuasiRadial("r1^2/(1+r1^2)"),
             MultiSphereFactor(0, "s1^2 + s2", (1, -1)),
             PhaseMonomial((-1, 0, 1)))),
], ids=["single-sphere", "radial-multi-sphere-phase"])
def test_batch_evaluation_is_bitwise_in_chunks(psi):
    """Each point's value does not depend on the batch it is evaluated in,
    so a Monte Carlo draw may be evaluated in chunks, also of sizes that
    divide neither the draw nor a SIMD vector (chunks of 7 over the first
    7000 points, to keep the call count small)."""
    rng = np.random.default_rng(1)
    y = rng.dirichlet([1.0, 1.0, 1.0, 4.0], size=100_000)
    R = np.sqrt(y[:, :3] / y[:, 3:])
    theta = rng.random((100_000, 3)) * 2 * np.pi
    whole = evaluate_symbol_batch(psi, R, theta, K21)
    for chunk, stop in ((2**15, len(R)), (999, len(R)), (7, 7000)):
        chunks = np.concatenate([
            evaluate_symbol_batch(psi, R[i:i + chunk], theta[i:i + chunk],
                                  K21) for i in range(0, stop, chunk)])
        assert whole[:stop].tobytes() == chunks.tobytes()


def test_polar_evaluation_matches_complex_phases():
    """At random points, the polar evaluator equals its value times
    prod_i (z_i/|z_i|)^p_i taken through complex powers, for shifts with
    |p_i| up to 3 and a phase monomial among the factors."""
    k = Partition((2, 2))
    psi = Product((QuasiRadial("r1^2/(1+r1^2+r2^2)"),
                   MultiSphereFactor(0, "s1^2 + s2", (3, -3)),
                   ExtendedFactor(1, "r1*s2", (1, -1)),
                   PhaseMonomial((-1, 2, 1, -2))))
    p = np.array(total_shift(psi, k))
    assert np.abs(p).max() == 3
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((10_000, 4)) + 1j * rng.standard_normal((10_000,
                                                                     4))
    R = np.abs(Z)
    got = evaluate_symbol_batch(psi, R, np.angle(Z), k)
    amplitude = evaluate_symbol_batch(Product(tuple(
        f for f in flatten(psi) if not isinstance(f, PhaseMonomial))),
        R, np.zeros_like(R), k)
    assert np.all(amplitude.imag == 0)
    want = amplitude.real * np.prod((Z / R) ** p, axis=-1)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14


def test_zero_coordinate_phase_ignores_the_sign_of_zero():
    """A coordinate -0.0 + 0.0j has angle pi, but its phase is 1 as at 0j:
    p_i theta_i drops out wherever R_i = 0."""
    psi = Product((QuasiRadial("1 + r2"), PhaseMonomial((1, 0, -1))))
    at_zero = evaluate_symbol(psi, [0j, 1 + 1j, 2 - 1j], K21)
    at_minus_zero = evaluate_symbol(psi, [complex(-0.0, 0.0), 1 + 1j, 2 - 1j],
                                    K21)
    assert at_minus_zero == at_zero
    assert at_zero == pytest.approx((1 + np.sqrt(5)) * (2 + 1j) / np.sqrt(5))


@pytest.mark.parametrize("n", range(1, 10))
def test_row_sum_is_bitwise_numpy_sum(n):
    """row_sum is np.sum(x, axis=-1) bit for bit, on (N, n) arrays, on the
    (rows, 1, n) shape of the polar grid's radial nodes and on a column
    slice, with +-0.0, +-inf and nan among the entries: in order from +0.0
    below 8 columns, NumPy's own sum from 8 on."""
    rng = np.random.default_rng(n)
    x = rng.standard_normal((4000, n)) * 10.0 ** rng.integers(-20, 20,
                                                              (4000, n))
    for value, share in ((0.0, 0.1), (-0.0, 0.3), (np.inf, 0.02),
                         (-np.inf, 0.02), (np.nan, 0.01)):
        x[rng.random(x.shape) < share] = value
    x[:3] = -0.0  # whole rows of -0.0 sum to +0.0
    wide = np.concatenate([x, x], axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf
        for y in (x, x[:200, None, :], wide[:, 1:n + 1]):
            assert row_sum(y).tobytes() == np.sum(y, axis=-1).tobytes()
