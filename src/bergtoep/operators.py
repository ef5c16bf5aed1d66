"""Toeplitz operators over the monomial basis and operator-algebra checks.

Every covered operator is a weighted shift T z^alpha = w(alpha) z^(alpha+p)
with a zero-sum shift p: it keeps each grade |alpha| and has at most one
nonzero per column and per row.  A ToeplitzMatrix stores per column alpha
its weight and its row(alpha+p), or -1 (weight 0) where alpha+p leaves the
basis or gamma(alpha) = 0.  The algebra runs as O(dim) gathers over these
two arrays; `data` builds the dense matrix on request.  Weights are in the
orthonormal basis, where the conjugate symbol gives the conjugate
transpose; raw weights gamma(alpha) are kept as a debugging mode.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import expr as exprmod
from .gamma import BallSpace, GammaTable, ProjectiveSpace, build_gamma_table
from .indexing import (DomainError, Partition, basis_index, enumerate_basis,
                       gammaln)
from .quadrature import QuadratureSpec
from .symbols import (
    ExtendedFactor,
    Product,
    QuasiRadial,
    SingleSphereFactor,
    SymbolSpec,
    flatten,
)


def space_basis(space) -> list[tuple[int, ...]]:
    if isinstance(space, ProjectiveSpace):
        return enumerate_basis(space.n, space.m)
    return enumerate_basis(space.n, space.cap)


def shift_targets(basis, shift) -> np.ndarray:
    """Row of alpha+shift for every column alpha, -1 outside the basis."""
    index = basis_index(list(basis))
    return np.array([index.get(tuple(a + q for a, q in zip(alpha, shift)), -1)
                     for alpha in basis], dtype=np.intp)


@dataclass(frozen=True)
class ToeplitzMatrix:
    weights: np.ndarray  # complex, weight of column alpha; 0 without target
    target: np.ndarray  # intp, row of column alpha, -1 for no entry
    shift: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    space: ProjectiveSpace | BallSpace
    normalized: bool = True

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def data(self) -> np.ndarray:
        """Read-only dense (dim, dim) view, built on every access."""
        cols = np.flatnonzero(self.target >= 0)
        M = np.zeros((self.dim, self.dim), dtype=complex)
        M[self.target[cols], cols] = self.weights[cols]
        M.flags.writeable = False
        return M

    def entries(self):
        """(rows, cols, values) of the nonzero entries in row order."""
        cols = np.flatnonzero((self.target >= 0) & (self.weights != 0))
        cols = cols[np.argsort(self.target[cols])]  # rows are distinct
        return self.target[cols], cols, self.weights[cols]


def _columns(table: GammaTable, basis):
    """gamma(alpha) and the target row of every column alpha."""
    target = shift_targets(basis, table.shift)
    g = np.array([table.entries.get(alpha, 0j) for alpha in basis],
                 dtype=complex)
    target[g == 0] = -1
    g[target < 0] = 0
    return g, target


def assemble(table: GammaTable, space=None, basis=None) -> ToeplitzMatrix:
    """Materialize a gamma table as a weighted shift in the orthonormal
    basis, in the frozen basis order.

    Since |alpha+p| = |alpha|, the squared-norm ratio of z^(alpha+p) to
    z^alpha is prod (alpha+p)_i! / alpha_i! on P^n and on the ball alike.
    """
    space = table.space if space is None else space
    if space != table.space:
        raise DomainError("table and target space disagree")
    basis = space_basis(space) if basis is None else list(basis)
    g, target = _columns(table, basis)
    kept = target >= 0
    alpha = np.array(basis, dtype=float)[kept]
    beta = alpha + np.asarray(table.shift, dtype=float)
    g[kept] *= np.exp(0.5 * (gammaln(beta + 1) - gammaln(alpha + 1)).sum(1))
    return ToeplitzMatrix(g, target, table.shift, tuple(basis), space)


def assemble_raw(table: GammaTable) -> ToeplitzMatrix:
    """Monomial-basis (unnormalized) variant, entry gamma(alpha) itself."""
    basis = space_basis(table.space)
    g, target = _columns(table, basis)
    return ToeplitzMatrix(g, target, table.shift, tuple(basis), table.space,
                          normalized=False)


def compose(m1: ToeplitzMatrix, m2: ToeplitzMatrix) -> ToeplitzMatrix:
    """m1 m2: column alpha goes to m1's target of m2's target."""
    if m1.basis != m2.basis:
        raise DomainError("operands assembled over different bases")
    shift = tuple(a + b for a, b in zip(m1.shift, m2.shift))
    mid = m2.target
    target = np.where(mid >= 0, m1.target[mid], -1)
    weights = np.where(mid >= 0, m1.weights[mid] * m2.weights, 0)
    return ToeplitzMatrix(weights, target, shift, m1.basis, m1.space,
                          m1.normalized)


def commutator(m1: ToeplitzMatrix, m2: ToeplitzMatrix) -> ToeplitzMatrix:
    """m1 m2 - m2 m1.  Both products send column alpha to row(alpha+p1+p2)
    or, near the edge of the basis, only one of them does."""
    a, b = compose(m1, m2), compose(m2, m1)
    return ToeplitzMatrix(a.weights - b.weights,
                          np.where(a.target >= 0, a.target, b.target),
                          a.shift, a.basis, a.space, a.normalized)


def frobenius_norm(m) -> float:
    data = m.weights if isinstance(m, ToeplitzMatrix) else np.asarray(m)
    return float(np.sqrt(np.sum(np.abs(data) ** 2)))


def audit_shift_structure(m: ToeplitzMatrix) -> bool:
    """Every column has at most one nonzero, in row(alpha + p)."""
    index = basis_index(list(m.basis))
    data = m.data
    for col, alpha in enumerate(m.basis):
        nz = np.flatnonzero(data[:, col])
        if len(nz) > 1:
            return False
        if len(nz) == 1:
            beta = tuple(a + q for a, q in zip(alpha, m.shift))
            if index.get(beta) != int(nz[0]):
                return False
    return True


def single_sphere_to_extended(f: SingleSphereFactor,
                              k: Partition) -> ExtendedFactor:
    """Rewrite b(sigma_(j)) in extended form: sigma_u = r_j s_u / |r|."""
    ell = k.num_blocks
    norm_src = "sqrt(" + " + ".join(f"r{v + 1}^2" for v in range(ell)) + ")"
    mapping = {
        f"sig{l + 1}": exprmod.parse(f"r{f.j + 1}*s{l + 1}/{norm_src}")
        for l in range(k.parts[f.j])
    }
    return ExtendedFactor(f.j, exprmod.subst(f.b, mapping), f.p)


def product_table(factors: list[SymbolSpec], space, k: Partition,
                  spec: QuadratureSpec) -> GammaTable:
    """Gamma table of the pointwise product of the given factors.

    Single-sphere factors are rewritten in extended form whenever they are
    combined with anything else, so the coupled-integral theorem covers
    the product.
    """
    flat = []
    for f in factors:
        flat.extend(flatten(f))
    if len(flat) > 1 and any(isinstance(f, SingleSphereFactor) for f in flat):
        flat = [single_sphere_to_extended(f, k)
                if isinstance(f, SingleSphereFactor) else f for f in flat]
    return build_gamma_table(Product(tuple(flat)), space, k, spec)


def fusion_defect(a: SymbolSpec | None, factors: list[SymbolSpec], space,
                  k: Partition, spec: QuadratureSpec) -> tuple[float, float]:
    """Frobenius distance between T of the product symbol and the product
    of the factor operators, plus the product-symbol scale."""
    all_factors = ([a] if a is not None else []) + list(factors)
    prod_matrix = assemble(product_table(all_factors, space, k, spec))
    acc = reduce(compose, (assemble(build_gamma_table(f, space, k, spec))
                           for f in all_factors))
    # both operators send column alpha to row(alpha+p) or nowhere (weight 0)
    defect = frobenius_norm(prod_matrix.weights - acc.weights)
    scale = frobenius_norm(prod_matrix)
    return defect, scale


def commutation_suite(symbols: list[SymbolSpec], space, k: Partition,
                      spec: QuadratureSpec) -> float:
    """Max pairwise relative commutator Frobenius norm over the suite."""
    mats = [assemble(build_gamma_table(s, space, k, spec)) for s in symbols]
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            ni, nj = frobenius_norm(mats[i]), frobenius_norm(mats[j])
            if ni == 0 or nj == 0:
                continue
            worst = max(worst, frobenius_norm(commutator(mats[i], mats[j]))
                        / (ni * nj))
    return worst


def export_matrix(m: ToeplitzMatrix, fh) -> None:
    """Coordinate-list text format, one entry per line: row col re im."""
    space = m.space
    weight = space.m if isinstance(space, ProjectiveSpace) else space.lam
    shift = ",".join(str(x) for x in m.shift)
    fh.write(f"# {space.n} {weight} {m.dim} shift={shift}\n")
    for r, c, v in zip(*m.entries()):
        fh.write(f"{r} {c} {float(v.real)!r} {float(v.imag)!r}\n")
