"""Multi-index and partition combinatorics for the monomial bases.

The basis at weight m over n variables, the z^alpha with |alpha| <= m in
graded lexicographic order (grade |alpha|, then lexicographic), is one
read-only (dim, n) int array; `basis_rank` inverts it in closed form and
gives -1 outside it.  Every matrix row/column index is such a rank.  The
package's frozen value classes derive from `Record`, which, unlike
`dataclasses`, builds no code per class when the package is imported.
`gammaln_ratio` is the engine's one Gamma ratio, to a few ulps of the log
ratio at any weight; the oracles take scalar `gammaln` sums of their own.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class DomainError(ValueError):
    """Raised when an operation is called outside its mathematical domain."""


class Record:
    """Base of the package's frozen value classes, building no code per
    class.  The fields are the annotated names, inherited ones first, with
    class attributes as defaults; `__dict__` is the fields in order.  A
    record equals only its own class, and hashes once, into a slot."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls):  # the base's fields, then the new ones
        base = getattr(cls, "_fields", ())
        own = vars(cls).get("__annotations__", ())
        cls._fields = base + tuple(f for f in own if f not in base)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # by keyword, or defaults
            given = dict(zip(fields, args), **kwargs)
            if len(given) < len(args) + len(kwargs) or {*given} | {
                    f for f in fields if hasattr(type(self), f)} != {*fields}:
                raise TypeError(f"{type(self).__name__}() takes {fields}")
            args = [given[f] if f in given else getattr(type(self), f)
                    for f in fields]
        object.__setattr__(self, "__dict__", dict(zip(fields, args)))
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, *value):
        raise AttributeError(f"field {name!r} is frozen")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        if not hasattr(self, "_hash"):
            object.__setattr__(self, "_hash", hash(tuple(vars(self).values())))
        return self._hash

    def __getstate__(self):  # the fields, not the hash
        return vars(self)

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the given fields changed, validated again."""
        return type(self)(**{**vars(self), **changes})


def as_integer(value, name: str, error=DomainError) -> int:
    """int() of value; error, naming name, where value has a fractional
    part (it is not truncated) or int() cannot read it."""
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise error(f"{name} must be an integer, got {value!r}") from None


def gammaln(x) -> float:
    """log|Gamma(x)| of a scalar, +inf at the poles and past float range."""
    try:
        return math.lgamma(x)
    except (ValueError, OverflowError):
        return math.inf


# Stirling's series: c_k = B_2k / (2k (2k - 1)), k = 7, 6, .., 1
_STIRLING = [1/156, -691/360360, 1/1188, -1/1680, 1/1260, -1/360, 1/12]


def gammaln_ratio(x, d):
    """log Gamma(x + d) - log Gamma(x), elementwise for x, x + d >= 1, to a
    few ulps of max(|result|, 1), not of gammaln(x); 0 where d = 0.  x is
    raised by 10 through Gamma(x + 1) = x Gamma(x), and there Stirling's
    series is differenced without cancellation: (x - 1/2) log(1 + d/x)
    + d log(x + d) - d + sum_k c_k ((x + d)^(1-2k) - x^(1-2k))."""
    x, d = np.asarray(x, dtype=float), np.asarray(d, dtype=float)
    # log((x+k+d)/(x+k)), k = 10..0, as +-log1p of a quotient that is >= 0
    sign, size, low = np.sign(d), np.abs(d), np.minimum(d, 0)
    logs = [sign * np.log1p(size / (x + k + low)) for k in range(10, -1, -1)]
    x, y = x + 10, x + 10 + d
    series = [np.polyval(_STIRLING, t ** -2) / t for t in (y, x)]
    return (d * np.log(y) - sum(logs[1:])  # the smallest terms first
            + ((x - 0.5) * logs[0] - d + (series[0] - series[1])))


class Partition(Record):
    """Block structure k = (k_1, ..., k_l) of the n coordinates."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(as_integer(p, "partition") for p in self.parts)
        if not parts or any(p < 1 for p in parts):
            raise DomainError(f"partition parts must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_blocks(self) -> int:
        return len(self.parts)

    def block_slice(self, j: int) -> slice:
        """0-based block index j -> slice of coordinates in that block."""
        off = sum(self.parts[:j])
        return slice(off, off + self.parts[j])

    def block(self, vec, j: int):
        """Slice of a length-n sequence belonging to block j."""
        return tuple(vec[self.block_slice(j)])


@lru_cache(maxsize=8)
def enumerate_basis(n: int, m: int) -> np.ndarray:
    """All alpha in N^n with |alpha| <= m, graded lexicographic: a
    read-only (binomial(n+m, n), n) int array, row i the alpha of rank i,
    memoized so that the tables and operators of one command share it.

    Each row of the first i coordinates, in lexicographic order, is
    followed by every value coordinate i+1 can take, 0 to m minus the
    row's sum; a stable sort by grade then gives the graded order.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if m < 0:
        raise DomainError(f"need m >= 0, got {m}")
    rows, grade = np.zeros((1, 0), dtype=int), np.zeros(1, dtype=int)
    for _ in range(n):
        counts = m - grade + 1
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        value = np.arange(len(starts)) - starts
        rows = np.column_stack([np.repeat(rows, counts, axis=0), value])
        grade = np.repeat(grade, counts) + value
    basis = rows[np.argsort(grade, kind="stable")]
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=16)
def _pascal(n: int, m: int) -> np.ndarray:
    """C(x + y, y) at [x, y], the number of alpha in N^y with |alpha| = x."""
    table = np.array([[math.comb(x + y, y) for y in range(n + 1)]
                      for x in range(m + 1)], dtype=np.int64)
    table.flags.writeable = False
    return table


def basis_rank(alphas, m: int) -> np.ndarray:
    """The graded-lex rank of each alpha (the last axis of alphas) in
    `enumerate_basis(n, m)`, -1 for a negative entry or |alpha| > m.

    With d = |alpha| and R_i = d - alpha_1 - ... - alpha_i, the rank is the
    C(n+d-1, n) alphas of lower grade plus, for each coordinate i < n, the
    alphas of grade d that agree with alpha before i and are smaller at i,
    sum_(b < alpha_i) C(R_(i-1) - b + n-i-1, n-i-1)
    = C(R_(i-1) + n-i, n-i) - C(R_i + n-i, n-i) by the hockey stick.
    """
    alphas = np.asarray(alphas, dtype=np.int64)
    n, d = alphas.shape[-1], alphas.sum(axis=-1)
    inside = np.all(alphas >= 0, axis=-1) & (d <= m)
    table = _pascal(n, m)
    # R_0 .. R_(n-1), clipped into the table outside the basis
    rest = np.clip(d[..., None] - np.cumsum(alphas, axis=-1) + alphas, 0, m)
    y = np.arange(n - 1, 0, -1)
    rank = (np.where(d > 0, table[np.clip(d - 1, 0, m), n], 0)
            + (table[rest[..., :-1], y] - table[rest[..., 1:], y]).sum(-1))
    return np.where(inside, rank, -1)


def monomial_norm_sq_projective(alpha, m: int):
    """Exact squared norm alpha!(m-|alpha|)!/m! of z^alpha, a Fraction."""
    from fractions import Fraction  # imported here, off the CLI's start-up
    alpha = tuple(int(a) for a in alpha)
    d = sum(alpha)
    if d > m:
        raise DomainError(f"|alpha|={d} exceeds weight m={m}")
    num = math.prod(map(math.factorial, (m - d, *alpha)))
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
