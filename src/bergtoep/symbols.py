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

import dataclasses
from dataclasses import dataclass
from typing import Union

import numpy as np

from .expr import Expr, evaluate, parse
from .indexing import DomainError, Partition


class ValidationError(ValueError):
    """Raised when a symbol specification violates a structural constraint."""


def _as_expr(e) -> Expr:
    return parse(e) if isinstance(e, str) else e


@dataclass(frozen=True)
class QuasiRadial:
    a: Expr

    def __post_init__(self):
        object.__setattr__(self, "a", _as_expr(self.a))


@dataclass(frozen=True)
class AngularFactor:
    """A factor b(...) t_(j)^p on one block; the subclasses name which
    cosines b reads."""

    j: int  # 0-based block index
    b: Expr
    p: tuple[int, ...]  # block-local shift, must sum to zero

    def __post_init__(self):
        object.__setattr__(self, "b", _as_expr(self.b))
        p = tuple(int(x) for x in self.p)
        object.__setattr__(self, "p", p)
        if sum(p) != 0:
            raise ValidationError(f"block shift {p} must sum to zero")


class MultiSphereFactor(AngularFactor):
    """b over the block cosines s1..sk_j."""


class SingleSphereFactor(AngularFactor):
    """b over the block slice sig1..sigk_j of the global cosines."""


class ExtendedFactor(AngularFactor):
    """b over the block radii r1..rl and the block cosines s1..sk_j."""


@dataclass(frozen=True)
class PhaseMonomial:
    p: tuple[int, ...]  # full length n, total sum zero

    def __post_init__(self):
        p = tuple(int(x) for x in self.p)
        object.__setattr__(self, "p", p)
        if sum(p) != 0:
            raise ValidationError(f"phase shift {p} must sum to zero")


@dataclass(frozen=True)
class Product:
    factors: tuple["SymbolSpec", ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


SymbolSpec = Union[
    QuasiRadial, MultiSphereFactor, SingleSphereFactor, ExtendedFactor,
    PhaseMonomial, Product,
]


def flatten(psi: SymbolSpec) -> list[SymbolSpec]:
    if isinstance(psi, Product):
        out = []
        for f in psi.factors:
            out.extend(flatten(f))
        return out
    return [psi]


def validate_product(psi: SymbolSpec, k: Partition) -> None:
    """Check the at-most-one-radial / one-angular-per-block constraints."""
    factors = flatten(psi)
    radials = [f for f in factors if isinstance(f, QuasiRadial)]
    if len(radials) > 1:
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
        return dataclasses.replace(psi, p=tuple(-x for x in psi.p))
    raise TypeError(f"not a symbol: {psi!r}")


def radial_env(r: np.ndarray) -> dict:
    """Expression variables r1..rl bound to the block radii r[..., j]."""
    return {f"r{j + 1}": r[..., j] for j in range(r.shape[-1])}


def _block_phase(t_block: np.ndarray, p: tuple[int, ...]):
    out = 1.0 + 0j
    for l, pl in enumerate(p):
        if pl:
            out = out * t_block[..., l] ** pl
    return out


def evaluate_symbol_batch(psi: SymbolSpec, Z: np.ndarray, k: Partition):
    """Evaluate psi at a batch of points, Z of shape (..., n).

    Returns a complex array of shape Z.shape[:-1].  Phases of vanishing
    coordinates are taken as 1 and zero-radius block directions as the
    uniform point (1/sqrt(k_j), ..., 1/sqrt(k_j)).
    """
    Z = np.asarray(Z, dtype=complex)
    if Z.shape[-1] != k.n:
        raise DomainError(f"points have {Z.shape[-1]} coords, expected {k.n}")
    factors = flatten(psi)
    mod = np.abs(Z)
    t = np.where(mod > 0, Z / np.where(mod > 0, mod, 1.0), 1.0 + 0j)
    # the global cosines and each block's cosines only where a factor
    # reads them
    if any(isinstance(f, SingleSphereFactor) for f in factors):
        total = np.sqrt(np.sum(mod**2, axis=-1, keepdims=True))
        sigma = np.where(total > 0, mod / np.where(total > 0, total, 1.0),
                         1.0 / np.sqrt(k.n))
    cosine_blocks = {f.j for f in factors
                     if isinstance(f, (MultiSphereFactor, ExtendedFactor))}
    r = np.empty(Z.shape[:-1] + (k.num_blocks,))
    s_blocks = {}
    for j in range(k.num_blocks):
        blk = mod[..., k.block_slice(j)]
        rj = np.sqrt(np.sum(blk**2, axis=-1))
        r[..., j] = rj
        if j in cosine_blocks:
            safe = np.where(rj > 0, rj, 1.0)[..., None]
            s_blocks[j] = np.where(rj[..., None] > 0, blk / safe,
                                   1.0 / np.sqrt(k.parts[j]))

    value = np.ones(Z.shape[:-1], dtype=complex)
    for f in factors:
        if isinstance(f, QuasiRadial):
            value = value * evaluate(f.a, radial_env(r))
        elif isinstance(f, MultiSphereFactor):
            env = {f"s{l + 1}": s_blocks[f.j][..., l]
                   for l in range(k.parts[f.j])}
            tb = t[..., k.block_slice(f.j)]
            value = value * evaluate(f.b, env) * _block_phase(tb, f.p)
        elif isinstance(f, SingleSphereFactor):
            sl = k.block_slice(f.j)
            env = {f"sig{l + 1}": sigma[..., sl.start + l]
                   for l in range(k.parts[f.j])}
            tb = t[..., sl]
            value = value * evaluate(f.b, env) * _block_phase(tb, f.p)
        elif isinstance(f, ExtendedFactor):
            env = radial_env(r)
            env.update({f"s{l + 1}": s_blocks[f.j][..., l]
                        for l in range(k.parts[f.j])})
            tb = t[..., k.block_slice(f.j)]
            value = value * evaluate(f.b, env) * _block_phase(tb, f.p)
        elif isinstance(f, PhaseMonomial):
            value = value * _block_phase(t, f.p)
        else:
            raise TypeError(f"not a symbol: {f!r}")
    return value


def evaluate_symbol(psi: SymbolSpec, z, k: Partition) -> complex:
    """Pointwise value of psi at a single point z in C^n."""
    val = evaluate_symbol_batch(psi, np.asarray(z, dtype=complex)[None, :], k)
    return complex(val[0])
