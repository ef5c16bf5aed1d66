"""Moment maps, the simplex polytope of the torus action, and randomized
orbit-invariance checks for the symbol classes.

All invariance claims are function-factorization statements; they are
verified by sampling torus/unitary orbits at fixed seeds, not proved
symbolically.
"""

from __future__ import annotations

import numpy as np

from .indexing import DomainError, Partition
from .symbols import SymbolSpec, evaluate_symbol_batch

_ZERO_CUTOFF = 1e-8


def moment_map_full(w) -> np.ndarray:
    """(1/2|w|^2)(|w_0|^2, ..., |w_n|^2) for homogeneous coordinates w."""
    w = np.asarray(w, dtype=complex)
    nsq = float(np.sum(np.abs(w) ** 2))
    if nsq == 0:
        raise DomainError("moment map undefined at w = 0")
    return np.abs(w) ** 2 / (2 * nsq)


def moment_map_partition(w, k: Partition) -> np.ndarray:
    """Block version: (1/2|w|^2)(|w_0|^2, |w_(1)|^2, ..., |w_(l)|^2)."""
    if np.shape(w) != (k.n + 1,):
        raise DomainError(f"expected {k.n + 1} homogeneous coordinates")
    mu = moment_map_full(w)
    return np.array([mu[0], *(mu[1:][k.block_slice(j)].sum()
                              for j in range(k.num_blocks))])


def to_delzant(mu: np.ndarray) -> np.ndarray:
    """Drop the 0-th coordinate and rescale by 2; lands in the simplex."""
    mu = np.asarray(mu, dtype=float)
    if abs(float(mu.sum()) - 0.5) > 1e-12 or np.any(mu < -1e-14):
        raise DomainError(f"not a moment value: {mu}")
    x = 2.0 * mu[1:]
    if x.sum() > 1 + 1e-12:
        raise DomainError("image point escapes the simplex")
    return x


def _sample_points(rng, n: int, count: int) -> np.ndarray:
    """Complex Gaussian chart points, resampling near-zero coordinates."""
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    for _ in range(100):
        bad = np.abs(z) < _ZERO_CUTOFF
        if not bad.any():
            break
        z[bad] = (rng.standard_normal(int(bad.sum()))
                  + 1j * rng.standard_normal(int(bad.sum())))
    return z


def _max_deviation(psi, k: Partition, trials: int, seed: int, draw,
                   finish):
    """Max |psi(z') - psi(z)| over trials, each drawing z and then
    draw(rng, z) from its own default_rng(seed + trial); finish(Z, draws)
    gives all the z' at once, and psi takes all 2 trials points.  For a
    list of symbols psi, the list of their maxima on the one draw."""
    Z, draws = np.empty((2, trials, k.n), dtype=complex), []
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        Z[0, trial] = _sample_points(rng, k.n, 1)[0]
        draws.append(draw(rng, Z[0, trial]))
    Z[1] = finish(Z[0], draws)
    one = not isinstance(psi, list)
    R, theta, devs = np.abs(Z), np.angle(Z), []
    for s in [psi] if one else psi:
        vals = evaluate_symbol_batch(s, R, theta, k)
        # Python's abs: NumPy's vector loop may round |z| apart
        devs.append(max(0.0, *map(abs, (vals[1] - vals[0]).tolist())))
    return devs[0] if one else devs


def invariance_check(psi: SymbolSpec | list, k: Partition, action: str,
                     trials: int = 1000, seed: int = 0) -> float | list:
    """Max |psi(t.z) - psi(z)| over random points and torus elements, or
    for a list of symbols psi the list of their maxima, all on one draw.

    action "full-torus" multiplies each coordinate by its own phase;
    "partition-torus" multiplies block j by t_j / t_0 (the chart form of
    the block-diagonal torus action on homogeneous coordinates).
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    if action not in ("full-torus", "partition-torus"):
        raise DomainError(f"unknown action {action!r}")

    def move(rng, z):
        if action == "full-torus":
            return z * np.exp(2j * np.pi * rng.random(k.n))
        block_phases = np.exp(2j * np.pi * rng.random(k.num_blocks + 1))
        zt = z.copy()
        for j in range(k.num_blocks):
            zt[k.block_slice(j)] *= block_phases[j + 1] / block_phases[0]
        return zt

    return _max_deviation(psi, k, trials, seed, move,
                          lambda Z, draws: draws)


def _haar_unitaries(g) -> np.ndarray:
    """Haar unitaries from complex Gaussian matrices g (..., d, d): one
    stacked QR, with the phase ambiguity of each R's diagonal fixed."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def factorization_check(a: SymbolSpec | list, k: Partition,
                        pairs: int = 1000, seed: int = 0) -> float | list:
    """Max |a(z) - a(Uz)| over random block-diagonal unitaries U, or for a
    list of symbols a the list of their maxima, all on one draw.

    Block unitaries preserve the block moment map exactly, so any symbol
    factoring through it must be constant along these orbits.
    """
    if pairs < 1:
        raise DomainError("need at least one pair")

    def draw(rng, z):  # a complex Gaussian matrix per block
        return [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                for d in k.parts]

    def finish(Z, draws):
        Zt = Z.copy()
        for j in range(k.num_blocks):
            sl, U = k.block_slice(j), _haar_unitaries(
                np.array([g[j] for g in draws]))
            Zt[:, sl] = [u @ z for u, z in zip(U, Z[:, sl])]
        return Zt

    return _max_deviation(a, k, pairs, seed, draw, finish)
