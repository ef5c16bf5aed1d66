"""Moment maps, Delzant image, and orbit-invariance checks."""

import numpy as np
import pytest

from bergtoep.geometry import (
    _sample_points,
    factorization_check,
    invariance_check,
    moment_map_full,
    moment_map_partition,
    to_delzant,
)
from bergtoep.indexing import DomainError, Partition
from bergtoep.symbols import (
    MultiSphereFactor,
    PhaseMonomial,
    Product,
    QuasiRadial,
    evaluate_symbol_batch,
)

K21 = Partition((2, 1))


def test_moment_map_vertices_and_barycenter():
    n = 3
    e0 = np.zeros(n + 1, dtype=complex)
    e0[0] = 1.0
    assert np.allclose(to_delzant(moment_map_full(e0)), np.zeros(n))
    e1 = np.zeros(n + 1, dtype=complex)
    e1[1] = 1.0
    img = to_delzant(moment_map_full(e1))
    assert np.allclose(img, np.eye(n)[0])
    uni = np.ones(n + 1, dtype=complex)
    assert np.allclose(to_delzant(moment_map_full(uni)),
                       np.full(n, 1 / (n + 1)))


def test_moment_map_sum_is_half():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        mu = moment_map_full(w)
        assert mu.sum() == pytest.approx(0.5, abs=1e-13)
        x = to_delzant(mu)
        assert np.all(x >= 0) and x.sum() <= 1 + 1e-12


def test_moment_map_partition_blocks():
    w = np.array([1.0, 1.0, 1.0, 1.0], dtype=complex)
    mu = moment_map_partition(w, K21)
    assert np.allclose(mu, [0.125, 0.25, 0.125])
    assert np.allclose(to_delzant(mu), [0.5, 0.25])


def test_moment_map_partition_invariances():
    """mu_l is constant on partition-torus and block-unitary orbits."""
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        mu = moment_map_partition(w, K21)
        phases = np.exp(2j * np.pi * rng.random(3))
        wt = w.copy()
        wt[0] *= phases[0]
        wt[1:3] *= phases[1]
        wt[3] *= phases[2]
        assert np.allclose(moment_map_partition(wt, K21), mu, atol=1e-13)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        U, _ = np.linalg.qr(g)
        wu = w.copy()
        wu[1:3] = U @ w[1:3]
        assert np.allclose(moment_map_partition(wu, K21), mu, atol=1e-13)


def test_moment_map_rejects_zero():
    with pytest.raises(DomainError):
        moment_map_full(np.zeros(3, dtype=complex))
    with pytest.raises(DomainError):
        to_delzant(np.array([0.3, 0.3]))


def test_invariance_multisphere_full_torus():
    psi = MultiSphereFactor(0, "s1^2", (0, 0))
    assert invariance_check(psi, K21, "full-torus", trials=1000) <= 1e-12


def test_invariance_phase_partition_torus():
    psi = PhaseMonomial((1, -1, 0))  # blockwise-zero for k=(2,1)
    assert invariance_check(psi, K21, "partition-torus",
                            trials=1000) <= 1e-12


def test_invariance_counterexample_phase_full_torus():
    psi = PhaseMonomial((1, -1, 0))
    assert invariance_check(psi, K21, "full-torus", trials=200) > 0.1


def test_invariance_rejects_bad_action():
    with pytest.raises(DomainError):
        invariance_check(QuasiRadial("1"), K21, "so3", trials=1)
    with pytest.raises(DomainError):
        invariance_check(QuasiRadial("1"), K21, "full-torus", trials=0)


def test_factorization_quasi_radial_passes():
    a = QuasiRadial("r1^2/(r1^2 + r2^2)")
    assert factorization_check(a, K21, pairs=1000) <= 1e-12


def test_factorization_counterexample_direction_dependence():
    fake = MultiSphereFactor(0, "s1^2", (0, 0))  # depends on direction
    assert factorization_check(fake, K21, pairs=200) > 0.1


def test_checks_are_seed_deterministic():
    psi = Product((QuasiRadial("r1"), PhaseMonomial((1, -1, 0))))
    a = invariance_check(psi, K21, "full-torus", trials=50, seed=3)
    b = invariance_check(psi, K21, "full-torus", trials=50, seed=3)
    assert a == b


def per_trial_deviation(psi, k, check, trials, seed):
    """The checks' deviation, one trial and one evaluation at a time."""
    worst = 0.0
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        z = _sample_points(rng, k.n, 1)[0]
        if check == "full-torus":
            zt = z * np.exp(2j * np.pi * rng.random(k.n))
        elif check == "partition-torus":
            phases = np.exp(2j * np.pi * rng.random(k.num_blocks + 1))
            zt = z.copy()
            for j in range(k.num_blocks):
                zt[k.block_slice(j)] *= phases[j + 1] / phases[0]
        else:
            zt = z.copy()
            for j in range(k.num_blocks):
                sl = k.block_slice(j)
                d = k.parts[j]
                q, r = np.linalg.qr(rng.standard_normal((d, d))
                                    + 1j * rng.standard_normal((d, d)))
                zt[sl] = q * (np.diag(r) / np.abs(np.diag(r))) @ z[sl]
        Z = np.stack([z, zt])
        vals = evaluate_symbol_batch(psi, np.abs(Z), np.angle(Z), k)
        worst = max(worst, float(abs(vals[1] - vals[0])))
    return worst


# criterion 09's checks and counterexamples, and a symbol with a phase
# on every coordinate
DEVIATION_CASES = [
    (MultiSphereFactor(0, "s1^2", (0, 0)), "full-torus", 1000),
    (PhaseMonomial((1, -1, 0)), "partition-torus", 1000),
    (QuasiRadial("r1^2/(r1^2 + r2^2)"), "factorization", 1000),
    (PhaseMonomial((1, -1, 0)), "full-torus", 100),
    (MultiSphereFactor(0, "s1^2", (0, 0)), "factorization", 100),
    (Product((QuasiRadial("r1"), MultiSphereFactor(0, "s1", (2, -2)),
              PhaseMonomial((-1, 2, -1)))), "partition-torus", 300),
]


@pytest.mark.parametrize("psi,check,trials", DEVIATION_CASES)
def test_batched_trials_equal_the_per_trial_loop(psi, check, trials):
    if check == "factorization":
        got = factorization_check(psi, K21, pairs=trials, seed=5)
    else:
        got = invariance_check(psi, K21, check, trials=trials, seed=5)
    assert got == per_trial_deviation(psi, K21, check, trials, 5)


@pytest.mark.parametrize("check", ["full-torus", "partition-torus",
                                   "factorization"])
def test_a_list_of_symbols_shares_one_draw(check):
    """A list of symbols is checked on one draw, each bitwise as when
    checked alone."""
    symbols = [psi for psi, _, _ in DEVIATION_CASES]
    if check == "factorization":
        got = factorization_check(symbols, K21, pairs=200, seed=5)
        alone = [factorization_check(s, K21, pairs=200, seed=5)
                 for s in symbols]
    else:
        got = invariance_check(symbols, K21, check, trials=200, seed=5)
        alone = [invariance_check(s, K21, check, trials=200, seed=5)
                 for s in symbols]
    assert got == alone
