"""Dense symmetric-matrix primitives shared by every test statistic.

Everything downstream (shrinkage, detectors, simulation) goes through the
pooled sample covariance and its eigendecomposition, so the conventions are
pinned here once: eigenvalues in non-increasing order, a deterministic sign
convention on eigenvectors, and a relative clip that maps tiny negative
eigenvalues of a PSD matrix to exactly zero.

A sample pair is decomposed by `decompose_pair`.  When p > n1 + n2 the
pooled covariance has rank at most n1 + n2 - 2, and its range eigenpairs come
from the small (n1 + n2) x (n1 + n2) Gram matrix of the centred data; the
null space is then left implicit (range-plus-null form).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError

# Tolerance for accepting a matrix as symmetric, and the relative floor below
# which a slightly-negative eigenvalue of a PSD matrix is treated as exactly 0.
SYMMETRY_ATOL = 1e-10
EIGENVALUE_CLIP = 1e-10


def _readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise StructuralError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class DataMatrix:
    """A p x n block of observations, one column per observation."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2:
            raise StructuralError(f"data matrix must be 2-D, got shape {e.shape}")
        if e.shape[1] < 2:
            raise StructuralError(f"need at least 2 observations, got {e.shape[1]}")
        _require_finite(e, "data matrix")
        object.__setattr__(self, "entries", _readonly(e))

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class SamplePair:
    """Two independent samples sharing one coordinate space.

    The group means xbar1, xbar2 and their difference mean_diff are computed
    once, at construction.
    """

    x1: DataMatrix
    x2: DataMatrix

    def __post_init__(self):
        x1 = self.x1 if isinstance(self.x1, DataMatrix) else DataMatrix(self.x1)
        x2 = self.x2 if isinstance(self.x2, DataMatrix) else DataMatrix(self.x2)
        if x1.p != x2.p:
            raise StructuralError(
                f"dimension mismatch between samples: {x1.p} vs {x2.p}"
            )
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        xbar1 = x1.entries.mean(axis=1)
        xbar2 = x2.entries.mean(axis=1)
        object.__setattr__(self, "xbar1", xbar1)
        object.__setattr__(self, "xbar2", xbar2)
        object.__setattr__(self, "mean_diff", xbar1 - xbar2)

    @property
    def p(self) -> int:
        return self.x1.p

    @property
    def n1(self) -> int:
        return self.x1.n

    @property
    def n2(self) -> int:
        return self.x2.n

    @property
    def n(self) -> int:
        """Effective sample size n1 + n2 - 2."""
        return self.n1 + self.n2 - 2

    @property
    def gram_side(self) -> bool:
        """True when p > n1 + n2: the pooled covariance is decomposed from the Gram side."""
        return self.p > self.n1 + self.n2

    @property
    def diff_scale(self) -> float:
        """The balanced-design scale n1*n2/(n1+n2)."""
        return self.n1 * self.n2 / (self.n1 + self.n2)


@dataclass(frozen=True)
class SymMatrix:
    """A square symmetric matrix with finite entries."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise StructuralError(f"expected a square matrix, got shape {e.shape}")
        _require_finite(e, "matrix")
        scale = max(1.0, float(np.max(np.abs(e))))
        if np.max(np.abs(e - e.T)) > SYMMETRY_ATOL * scale:
            raise StructuralError("matrix is not symmetric")
        object.__setattr__(self, "entries", _readonly(e))

    @property
    def p(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (non-increasing) and matching orthonormal eigenvectors.

    The eigenvectors are either a full p x p basis or, in range-plus-null
    form, a p x r block for the first r eigenvalues; the remaining p - r
    eigenvalues are then exactly 0 and belong to the orthogonal complement
    of the block, which is never formed.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = _readonly(self.eigenvalues)
        vecs = _readonly(self.eigenvectors)
        if vals.ndim != 1 or vecs.ndim != 2 or not vecs.shape[1] <= vecs.shape[0] == vals.size:
            raise StructuralError("inconsistent decomposition shapes")
        if np.any(vals[vecs.shape[1]:] != 0.0):
            raise StructuralError("eigenvalues without an eigenvector must be exactly 0")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def p(self) -> int:
        return self.eigenvalues.size


def pooled_scm(pair: SamplePair) -> SymMatrix:
    """Pooled sample covariance of the two groups.

    S = (1/n) * sum over groups of sum of (x - group mean) outer products,
    with n = n1 + n2 - 2.  The result is explicitly symmetrized so downstream
    eigendecompositions see an exactly symmetric matrix.
    """
    c1 = pair.x1.entries - pair.xbar1[:, None]
    c2 = pair.x2.entries - pair.xbar2[:, None]
    s = (c1 @ c1.T + c2 @ c2.T) / pair.n
    s = 0.5 * (s + s.T)
    return SymMatrix(s)


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the first nonzero coordinate of each is positive."""
    nonzero = vecs != 0.0
    first = np.argmax(nonzero, axis=0)  # index of first True per column, 0 if none
    cols = np.arange(vecs.shape[1])
    lead = vecs[first, cols]
    signs = np.where(nonzero.any(axis=0), np.sign(lead), 1.0)
    return vecs * signs


def spectral_decompose(m: SymMatrix | np.ndarray) -> SpectralDecomposition:
    """Full symmetric eigendecomposition with deterministic conventions.

    Eigenvalues are returned in non-increasing order.  Eigenvalues within
    EIGENVALUE_CLIP * largest of zero (either sign) are clipped to exactly 0:
    they are roundoff images of zero for rank-deficient PSD inputs, and
    downstream shrinkage branches on exact zero, so a +1e-16 residue must not
    masquerade as a positive eigenvalue.  More-negative values are kept so
    callers can reject genuinely indefinite matrices.
    """
    if not isinstance(m, SymMatrix):
        m = SymMatrix(m)
    vals, vecs = np.linalg.eigh(m.entries)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    top = vals[0]
    if top > 0.0:
        tiny = np.abs(vals) <= EIGENVALUE_CLIP * top
        vals[tiny] = 0.0
    return SpectralDecomposition(vals, _fix_signs(vecs))


def decompose_pair(pair: SamplePair, scm: SymMatrix | None = None) -> SpectralDecomposition:
    """Eigendecomposition of the pair's pooled sample covariance.

    For p <= n1 + n2 this is spectral_decompose(scm), with `scm` the pair's
    pooled_scm (formed here unless the caller passes it).  For p > n1 + n2
    no p x p matrix is formed: with C the p x N centred data (N = n1 + n2),
    the N x N Gram matrix C'C/n has the same nonzero eigenvalues as
    S = CC'/n, and an eigenvector w of it with eigenvalue lambda > 0 gives the
    unit eigenvector C w / sqrt(n lambda) of S.  The result is in
    range-plus-null form: length-p eigenvalues (the p - r null ones exactly
    0) and a p x r eigenvector block.  The Gram matrix goes through the same
    symmetry check, clip and sign convention as the p x p path.
    """
    if not pair.gram_side:
        return spectral_decompose(pooled_scm(pair) if scm is None else scm)
    c = np.concatenate((pair.x1.entries, pair.x2.entries), axis=1)
    c[:, : pair.n1] -= pair.xbar1[:, None]
    c[:, pair.n1 :] -= pair.xbar2[:, None]
    gram = spectral_decompose(SymMatrix(c.T @ c / pair.n))
    lam = gram.eigenvalues
    r = int(np.count_nonzero(lam > 0.0))
    vecs = c @ (gram.eigenvectors[:, :r] / np.sqrt(pair.n * lam[:r]))
    vals = np.concatenate((lam[:r], np.zeros(pair.p - r)))
    return SpectralDecomposition(vals, _fix_signs(vecs))


def quad_form_inverse(
    decomp: SpectralDecomposition, d: np.ndarray, v: np.ndarray
) -> float:
    """v' U diag(1/d) U' v for the decomposition's eigenvector basis U.

    `d` supplies the (strictly positive) eigenvalues of the matrix being
    inverted; passing modified eigenvalues (shrunk, ridge-shifted, ...) reuses
    one decomposition for many inverses.  In range-plus-null form (U is
    p x r) the null entries d[r:] must all be equal, and the null part adds
    (||v||^2 - ||U'v||^2) / d[r].
    """
    d = np.asarray(d, dtype=float)
    v = np.asarray(v, dtype=float)
    if d.shape != (decomp.p,) or v.shape != (decomp.p,):
        raise StructuralError(
            f"expected length-{decomp.p} vectors, got {d.shape} and {v.shape}"
        )
    _require_finite(d, "eigenvalue vector")
    _require_finite(v, "vector")
    if np.any(d <= 0.0):
        raise DomainError("non-positive eigenvalue: matrix is not positive definite")
    proj = decomp.eigenvectors.T @ v
    r = proj.size
    if r == decomp.p:
        return float(np.sum(proj * proj / d))
    if np.any(d[r:] != d[r]):
        raise StructuralError("null-space entries of d must all be equal")
    null = max(float(v @ v) - float(proj @ proj), 0.0)
    return float(np.sum(proj * proj / d[:r])) + null / d[r]


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix from CSV: one row per line, plain decimal, no header."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise StructuralError(
                    f"{path}: ragged row at line {lineno} "
                    f"({len(cells)} cells, expected {width})"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise StructuralError(f"{path}: non-numeric cell at line {lineno}") from exc
    if not rows:
        raise StructuralError(f"{path}: empty matrix file")
    out = np.array(rows, dtype=float)
    _require_finite(out, f"{path}")
    return out


def write_matrix_csv(path, m: np.ndarray) -> None:
    """Write a matrix as CSV with full round-trip precision (shortest repr)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        for row in m:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")
