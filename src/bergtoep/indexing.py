"""Multi-index and partition combinatorics for the monomial bases.

The basis of the weighted space over n variables at weight m is the set of
monomials z^alpha with |alpha| <= m, frozen in graded lexicographic order
(grade = |alpha|, then plain lexicographic within a grade).  Every matrix
row/column index in the package refers to this order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np


class DomainError(ValueError):
    """Raised when an operation is called outside its mathematical domain."""


def _lgamma(x: float) -> float:
    try:
        return math.lgamma(x)
    except (ValueError, OverflowError):  # a pole, or past the float range
        return math.inf


def gammaln(x):
    """log|Gamma(x)|, +inf at the poles 0, -1, -2, ...; elementwise on
    arrays, a float on scalars."""
    # Python scalars skip NumPy's dispatch in np.ndim
    if isinstance(x, (int, float)) or np.ndim(x) == 0:
        return _lgamma(float(x))
    # once per distinct value, looked up without sorting: array arguments
    # are multi-indices, with few distinct entries
    flat = np.ravel(x).tolist()
    table = {v: _lgamma(float(v)) for v in set(flat)}
    return np.array([table[v] for v in flat], dtype=float).reshape(np.shape(x))


@dataclass(frozen=True)
class Partition:
    """Block structure k = (k_1, ..., k_l) of the n coordinates."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if not parts or any(p < 1 for p in parts):
            raise DomainError(f"partition parts must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_blocks(self) -> int:
        return len(self.parts)

    @property
    def block_offsets(self) -> tuple[int, ...]:
        offs = []
        acc = 0
        for p in self.parts:
            offs.append(acc)
            acc += p
        return tuple(offs)

    def block_slice(self, j: int) -> slice:
        """0-based block index j -> slice of coordinates in that block."""
        off = self.block_offsets[j]
        return slice(off, off + self.parts[j])

    def block(self, vec, j: int):
        """Slice of a length-n sequence belonging to block j."""
        return tuple(vec[self.block_slice(j)])


@lru_cache(maxsize=8)
def enumerate_basis(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All alpha in N^n with |alpha| <= m, graded lexicographic.

    Length is binomial(n+m, n).  The order is the package-wide contract:
    grade ascending, lexicographic within each grade.  The tuple is
    memoized, so the tables and operators of one command share one basis.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if m < 0:
        raise DomainError(f"need m >= 0, got {m}")
    out: list[tuple[int, ...]] = []
    for d in range(m + 1):
        grade = []
        # compositions of d into n parts
        for comb in combinations_with_replacement(range(n), d):
            alpha = [0] * n
            for c in comb:
                alpha[c] += 1
            grade.append(tuple(alpha))
        grade.sort()
        out.extend(grade)
    return tuple(out)


def basis_index(basis: Sequence[tuple[int, ...]]) -> dict[tuple[int, ...], int]:
    return {alpha: i for i, alpha in enumerate(basis)}


def monomial_norm_sq_projective(alpha, m: int) -> Fraction:
    """Exact squared norm of z^alpha at weight m: alpha!(m-|alpha|)!/m!."""
    alpha = tuple(int(a) for a in alpha)
    d = sum(alpha)
    if d > m:
        raise DomainError(f"|alpha|={d} exceeds weight m={m}")
    num = math.factorial(m - d)
    for a in alpha:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(m))


def monomial_norm_sq_ball(alpha, lam: float, n: int) -> float:
    """Squared norm of z^alpha on the weighted ball space:
    alpha! Gamma(n+lam+1) / Gamma(n+|alpha|+lam+1)."""
    if lam <= -1:
        raise DomainError(f"need lambda > -1, got {lam}")
    alpha = tuple(int(a) for a in alpha)
    d = sum(alpha)
    logv = gammaln(n + lam + 1) - gammaln(n + d + lam + 1)
    for a in alpha:
        logv += gammaln(a + 1)
    return float(np.exp(logv))
