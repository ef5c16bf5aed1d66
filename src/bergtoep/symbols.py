"""Declarative symbol model and pointwise evaluation.

A symbol is a product of at most one radial factor, at most one angular
factor per block, and phase monomials.  Angular factors come in three
flavours: per-block direction cosines (multi-sphere), global direction
cosines restricted to a block (single-sphere), and radius-dependent
per-block cosines (extended).  All radial/angular expressions are
real-valued; phases enter only through integer monomials t^p.

Expression variable conventions (all positional, 1-based):
  r1..rl      block radii |z_(j)|                (QuasiRadial, ExtendedFactor)
  s1..sk_j    block direction cosines            (MultiSphereFactor, ExtendedFactor)
  sig1..sigk_j  block slice of the global cosines  (SingleSphereFactor)
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .expr import Expr, evaluate, parse
from .indexing import DomainError, Partition, Record, as_integer


class ValidationError(ValueError):
    """Raised when a symbol specification violates a structural constraint."""


def _as_expr(e) -> Expr:
    return parse(e) if isinstance(e, str) else e


class QuasiRadial(Record):
    a: Expr

    def __post_init__(self):
        object.__setattr__(self, "a", _as_expr(self.a))


class AngularFactor(Record):
    """A factor b(...) t_(j)^p on one block; the subclasses name which
    cosines b reads."""

    j: int  # 0-based block index
    b: Expr
    p: tuple[int, ...]  # block-local shift, must sum to zero

    def __post_init__(self):
        object.__setattr__(self, "b", _as_expr(self.b))
        p = tuple(as_integer(x, "p", ValidationError) for x in self.p)
        object.__setattr__(self, "p", p)
        if sum(p) != 0:
            raise ValidationError(f"block shift {p} must sum to zero")


class MultiSphereFactor(AngularFactor):
    """b over the block cosines s1..sk_j."""


class SingleSphereFactor(AngularFactor):
    """b over the block slice sig1..sigk_j of the global cosines."""


class ExtendedFactor(AngularFactor):
    """b over the block radii r1..rl and the block cosines s1..sk_j."""


class PhaseMonomial(Record):
    p: tuple[int, ...]  # full length n, total sum zero

    def __post_init__(self):
        p = tuple(as_integer(x, "p", ValidationError) for x in self.p)
        object.__setattr__(self, "p", p)
        if sum(p) != 0:
            raise ValidationError(f"phase shift {p} must sum to zero")


class Product(Record):
    factors: tuple["SymbolSpec", ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


SymbolSpec = Union[
    QuasiRadial, MultiSphereFactor, SingleSphereFactor, ExtendedFactor,
    PhaseMonomial, Product,
]


def flatten(psi: SymbolSpec) -> list[SymbolSpec]:
    if isinstance(psi, Product):
        return [g for f in psi.factors for g in flatten(f)]
    return [psi]


def validate_product(psi: SymbolSpec, k: Partition) -> None:
    """Check the at-most-one-radial / one-angular-per-block constraints."""
    factors = flatten(psi)
    if sum(isinstance(f, QuasiRadial) for f in factors) > 1:
        raise ValidationError("more than one quasi-radial factor")
    seen_blocks: set[int] = set()
    for f in factors:
        if isinstance(f, AngularFactor):
            if not 0 <= f.j < k.num_blocks:
                raise ValidationError(f"block index {f.j} out of range")
            if len(f.p) != k.parts[f.j]:
                raise ValidationError(
                    f"block shift length {len(f.p)} != k_j={k.parts[f.j]}"
                )
            if f.j in seen_blocks:
                raise ValidationError(f"two angular factors on block {f.j}")
            seen_blocks.add(f.j)
        elif isinstance(f, PhaseMonomial):
            if len(f.p) != k.n:
                raise ValidationError(f"phase shift length {len(f.p)} != n={k.n}")


def total_shift(psi: SymbolSpec, k: Partition) -> tuple[int, ...]:
    """Accumulated shift of the symbol as a length-n integer vector."""
    p = np.zeros(k.n, dtype=int)
    for f in flatten(psi):
        if isinstance(f, AngularFactor):
            p[k.block_slice(f.j)] += np.asarray(f.p, dtype=int)
        elif isinstance(f, PhaseMonomial):
            p += np.asarray(f.p, dtype=int)
    return tuple(int(x) for x in p)


def conjugate(psi: SymbolSpec) -> SymbolSpec:
    """Complex conjugate of a symbol (real a/b parts, so only p flips)."""
    if isinstance(psi, Product):
        return Product(tuple(conjugate(f) for f in psi.factors))
    if isinstance(psi, QuasiRadial):
        return psi
    if isinstance(psi, (AngularFactor, PhaseMonomial)):
        return psi.replace(p=tuple(-x for x in psi.p))
    raise TypeError(f"not a symbol: {psi!r}")


def row_sum(x):
    """np.sum(x, axis=-1) bit for bit, and far faster on a short last axis:
    the columns added in order from +0.0, as NumPy sums fewer than 8 of
    them; from 8 on it sums pairwise, and np.sum takes over."""
    if x.shape[-1] >= 8:
        return np.sum(x, axis=-1)
    out = np.zeros(x.shape[:-1])
    for j in range(x.shape[-1]):
        out += x[..., j]
    return out


def _cosines(x):
    """x / |x| over the last axis, the uniform point where |x| = 0."""
    norm = np.sqrt(row_sum(x**2))[..., None]
    return np.where(norm > 0, x / np.where(norm > 0, norm, 1.0),
                    1.0 / np.sqrt(x.shape[-1]))


def evaluate_symbol_batch(psi: SymbolSpec, R, theta, k: Partition):
    """Evaluate psi at a batch of points in polar form: the moduli R and
    the angles theta of the coordinates, z_i = R_i e^{i theta_i}, arrays of
    shape (..., n) that broadcast together.

    Returns a complex array of their broadcast shape without the last axis.
    The factors' real values are taken from R alone; zero-radius block
    directions are the uniform point (1/sqrt(k_j), ..., 1/sqrt(k_j)).  The
    phase t^p of the total shift is the cos and sin of sum_i p_i theta_i,
    summed elementwise in coordinate order with theta_i taken as 0 where
    R_i = 0, so that every point's value is the same whatever the batch it
    is evaluated in.
    """
    R, theta = np.asarray(R, dtype=float), np.asarray(theta, dtype=float)
    if R.shape[-1] != k.n or theta.shape[-1] != k.n:
        raise DomainError(f"points have {R.shape[-1]} moduli and "
                          f"{theta.shape[-1]} angles, expected {k.n}")
    # the block radii r1..rl
    radii = {f"r{j + 1}": np.sqrt(row_sum(R[..., k.block_slice(j)]**2))
             for j in range(k.num_blocks)}
    value = np.ones(R.shape[:-1])
    for f in flatten(psi):
        if isinstance(f, QuasiRadial):
            value = value * evaluate(f.a, radii)
        elif isinstance(f, AngularFactor):
            # the global cosines' block slice, or the block's own cosines
            single = isinstance(f, SingleSphereFactor)
            cosines = (_cosines(R)[..., k.block_slice(f.j)] if single
                       else _cosines(R[..., k.block_slice(f.j)]))
            env = {f"{'sig' if single else 's'}{l + 1}": cosines[..., l]
                   for l in range(k.parts[f.j])}
            if isinstance(f, ExtendedFactor):
                env.update(radii)
            value = value * evaluate(f.b, env)
        elif not isinstance(f, PhaseMonomial):
            raise TypeError(f"not a symbol: {f!r}")
    out = np.zeros(np.broadcast_shapes(R.shape, theta.shape)[:-1], complex)
    if any(p := total_shift(psi, k)):
        angle = sum(pi * np.where(R[..., i] > 0, theta[..., i], 0.0)
                    for i, pi in enumerate(p) if pi)
        out.imag = value * np.sin(angle)
        value = value * np.cos(angle)
    out.real = value
    return out


def evaluate_symbol(psi: SymbolSpec, z, k: Partition) -> complex:
    """Pointwise value of psi at a single point z in C^n."""
    z = np.asarray(z, dtype=complex)[None, :]
    return complex(evaluate_symbol_batch(psi, np.abs(z), np.angle(z), k)[0])
