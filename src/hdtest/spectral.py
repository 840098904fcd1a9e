"""Dense symmetric-matrix primitives shared by every test statistic.

Everything downstream (shrinkage, detectors, simulation) goes through the
pooled sample covariance and its eigendecomposition, so the conventions are
pinned here once: eigenvalues in non-increasing order, and a relative clip
that maps tiny negative eigenvalues of a PSD matrix to exactly zero.

Symmetric input is a plain square array: `spectral_decompose` is the one
place that checks it is finite and symmetric within SYMMETRY_ATOL.  A sample
pair owns its pooled covariance (`pair.scm`, a read-only p x p array) and its
decomposition (`pair.decomposition`, formed by `decompose_pair`), each formed
on first use and then kept, so every statistic read off one pair shares them.
When p > n1 + n2 the pooled covariance has rank at most n1 + n2 - 2, and its
range eigenpairs come from the small (n1 + n2) x (n1 + n2) Gram matrix of the
centred data; the null space is then left implicit (range-plus-null form),
and the range eigenvectors are kept as a product of the centred data and a
small factor.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import DomainError, StructuralError

# Tolerance for accepting a matrix as symmetric, and the relative floor below
# which a slightly-negative eigenvalue of a PSD matrix is treated as exactly 0.
SYMMETRY_ATOL = 1e-10
EIGENVALUE_CLIP = 1e-10


def _readonly(a, owned=False) -> np.ndarray:
    """A read-only float array with a's entries.

    It is a copy, so a caller's later writes to `a` cannot reach it, unless
    `owned` says that `a` is a float array the library has just made and
    that nothing else holds; that one is frozen in place.
    """
    out = a if owned else np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _take(workspace: dict | None, name: str, shape: tuple) -> np.ndarray:
    """A new array to fill, or, given a workspace (a dict that one engine
    worker's pairs use in turn), a fresh view of its array `name`: freezing
    the view leaves the workspace's array writable."""
    if workspace is None:
        return np.empty(shape)
    a = workspace.get(name)
    if a is None or a.shape != shape:
        a = workspace[name] = np.empty(shape)
    return a[...]


def _finite_array(a, what: str) -> np.ndarray:
    """a as a float array with finite entries (an ndarray of floats is not
    copied); a ragged, non-numeric or non-finite a is a StructuralError."""
    try:
        out = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StructuralError(f"{what} is not a vector or matrix of numbers: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise StructuralError(f"{what} contains non-finite entries")
    return out


@dataclass(frozen=True)
class SamplePair:
    """Two independent samples sharing one coordinate space.

    x1 and x2 are p x n1 and p x n2 blocks of observations, one column per
    observation, each 2-D with at least 2 columns and finite entries.  Each
    is kept as a read-only copy of the caller's array.

    The group means xbar1, xbar2 and their difference mean_diff are computed
    once, at construction, and frozen in place.  The pooled covariance `scm`
    and its `decomposition` are formed on first use and then kept for the
    pair's lifetime.  The caches are plain attributes with no lock: two threads
    that first read one at the same time may each form it.

    With the engine's `_workspace` (see _take) the pair forms its arrays in
    it, so it must be dropped before the next pair that shares it is formed.
    The engine drew both blocks into that workspace, so they are frozen in
    place, not copied.
    """

    x1: np.ndarray
    x2: np.ndarray
    _workspace: InitVar[dict | None] = None

    def __post_init__(self, _workspace):
        for name in ("x1", "x2"):
            e = _finite_array(getattr(self, name), "data matrix")
            if e.ndim != 2:
                raise StructuralError(f"data matrix must be 2-D, got shape {e.shape}")
            if e.shape[1] < 2:
                raise StructuralError(f"need at least 2 observations, got {e.shape[1]}")
            object.__setattr__(self, name, _readonly(e, _workspace is not None))
        x1, x2 = self.x1, self.x2
        if x1.shape[0] != x2.shape[0]:
            raise StructuralError(
                f"dimension mismatch between samples: {x1.shape[0]} vs {x2.shape[0]}"
            )
        # An overflowing mean is inf or nan, and so is mean_diff: one check covers all.
        with np.errstate(over="ignore", invalid="ignore"):
            xbar1 = x1.mean(axis=1)
            xbar2 = x2.mean(axis=1)
            mean_diff = xbar1 - xbar2
        if not np.all(np.isfinite(mean_diff)):
            raise DomainError("group mean overflows the float range")
        for name, v in (("xbar1", xbar1), ("xbar2", xbar2), ("mean_diff", mean_diff)):
            object.__setattr__(self, name, _readonly(v, True))
        object.__setattr__(self, "_ws", _workspace)
        object.__setattr__(self, "_scm", None)
        object.__setattr__(self, "_decomposition", None)

    @property
    def scm(self) -> np.ndarray:
        """The pooled sample covariance, pooled_scm(self): read-only, p x p."""
        if self._scm is None:
            object.__setattr__(self, "_scm", pooled_scm(self))
        return self._scm

    @property
    def decomposition(self) -> SpectralDecomposition:
        """The pooled covariance's eigendecomposition, decompose_pair(self)."""
        if self._decomposition is None:
            object.__setattr__(self, "_decomposition", decompose_pair(self))
        return self._decomposition

    @property
    def p(self) -> int:
        return self.x1.shape[0]

    @property
    def n1(self) -> int:
        return self.x1.shape[1]

    @property
    def n2(self) -> int:
        return self.x2.shape[1]

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


@dataclass(frozen=True, init=False)
class SpectralDecomposition:
    """Eigenvalues (non-increasing) and matching orthonormal eigenvectors.

    The eigenvectors are either a full p x p basis or, in range-plus-null
    form, a p x r block for the first r eigenvalues; the remaining p - r
    eigenvalues are then exactly 0 and belong to the orthogonal complement
    of the block, which is never formed.  Both arrays are read-only copies of
    the caller's, which must be finite; `_owned=True` freezes arrays the
    library has just made in place instead.

    A Gram-side decomposition (see decompose_pair) keeps its p x r block
    factored as C B, the p x N centred data times an N x r factor.  Reading
    `eigenvectors` forms the block once and keeps it; this module's readers,
    quad_form_inverse and weighted_norms, work from the factors and never
    form it, so their results do not depend on whether it was read.
    """

    eigenvalues: np.ndarray

    def __init__(self, eigenvalues, eigenvectors, _owned=False, _factors=None):
        # _factors=(c, b), with eigenvectors None, is decompose_pair's
        # factored block c @ b, from arrays the library has just made
        def keep(a, what):
            return _readonly(a if _owned else _finite_array(a, what), _owned)

        vals = keep(eigenvalues, "eigenvalues")
        if _factors is None:
            vecs, c, b = keep(eigenvectors, "eigenvectors"), None, None
            if vecs.ndim != 2:
                raise StructuralError("inconsistent decomposition shapes")
            p, r = vecs.shape
        else:
            vecs, (c, b) = None, (_readonly(a, True) for a in _factors)
            p, r = c.shape[0], b.shape[1]
        if vals.ndim != 1 or not r <= p == vals.size:
            raise StructuralError("inconsistent decomposition shapes")
        if np.any(vals[r:] != 0.0):
            raise StructuralError("eigenvalues without an eigenvector must be exactly 0")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "_vecs", vecs)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_b", b)

    @property
    def eigenvectors(self) -> np.ndarray:
        """The p x p or p x r eigenvector block (a factored one is formed on
        first read, without a lock, like SamplePair's caches)."""
        if self._vecs is None:
            object.__setattr__(self, "_vecs", _readonly(self._c @ self._b, True))
        return self._vecs

    @property
    def p(self) -> int:
        return self.eigenvalues.size


def _covariance(s: np.ndarray) -> np.ndarray:
    """A covariance the library just formed from finite data, frozen in place;
    products past the float range are a domain failure of the sample, not
    malformed input."""
    if not np.all(np.isfinite(s)):
        raise DomainError("pooled sample covariance overflows")
    return _readonly(s, True)


def _centred(pair: SamplePair) -> np.ndarray:
    """The p x (n1 + n2) block of both groups' columns minus their group means."""
    c = _take(pair._ws, "centred", (pair.p, pair.n1 + pair.n2))
    np.subtract(pair.x1, pair.xbar1[:, None], out=c[:, : pair.n1])
    np.subtract(pair.x2, pair.xbar2[:, None], out=c[:, pair.n1 :])
    return c


def pooled_scm(pair: SamplePair) -> np.ndarray:
    """Pooled sample covariance of the two groups.

    S = (1/n) * sum over groups of sum of (x - group mean) outer products,
    with n = n1 + n2 - 2.  Each group's product is one C C' of its half of
    the centred block, which numpy forms with a symmetric rank-k update
    (syrk) and mirrors, so S is exactly symmetric.  S is returned read-only.
    Finite data whose products overflow raise DomainError.
    """
    c = _centred(pair)
    c1, c2 = c[:, : pair.n1], c[:, pair.n1 :]
    # an overflow, or two opposite infinities summed, is reported by _covariance
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.matmul(c1, c1.T, out=_take(pair._ws, "scm", (pair.p, pair.p)))
        s += np.matmul(c2, c2.T, out=_take(pair._ws, "scatter", (pair.p, pair.p)))
        s /= pair.n
    return _covariance(s)


def spectral_decompose(m) -> SpectralDecomposition:
    """Full symmetric eigendecomposition, eigenvalues in non-increasing order.

    `m` is any square array with finite entries that is symmetric within
    SYMMETRY_ATOL times its largest magnitude (at least 1), else
    StructuralError; nothing keeps it, so later writes to it change nothing.
    The eigenvectors are LAPACK's, signs included: every statistic reads
    them only through squares and products U D U', so no output depends on
    a sign.  They come as one new C-ordered array, the layout whose BLAS
    path fixes the bits of U'v.  Eigenvalues within
    EIGENVALUE_CLIP * largest of zero (either sign) are clipped to exactly 0:
    they are roundoff images of zero for rank-deficient PSD inputs, and
    downstream shrinkage branches on exact zero, so a +1e-16 residue must not
    masquerade as a positive eigenvalue.  More-negative values are kept so
    callers can reject genuinely indefinite matrices.
    """
    m = _finite_array(m, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructuralError(f"expected a square matrix, got shape {m.shape}")
    # An exactly symmetric matrix passes without the tolerance's temporaries.
    if not np.array_equal(m, m.T):
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.T)) > SYMMETRY_ATOL * scale:
            raise StructuralError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(m)
    vals = vals[::-1].copy()
    top = vals[0]
    if top > 0.0:
        tiny = np.abs(vals) <= EIGENVALUE_CLIP * top
        vals[tiny] = 0.0
    return SpectralDecomposition(vals, np.ascontiguousarray(vecs[:, ::-1]), _owned=True)


def decompose_pair(pair: SamplePair) -> SpectralDecomposition:
    """Eigendecomposition of the pair's pooled sample covariance.

    For p <= n1 + n2 this is spectral_decompose(pair.scm).  For p > n1 + n2
    no p x p matrix is formed: with C the p x N centred data (N = n1 + n2),
    the N x N Gram matrix C'C/n has the same nonzero eigenvalues as
    S = CC'/n, and an eigenvector w of it with eigenvalue lambda > 0 gives the
    unit eigenvector C w / sqrt(n lambda) of S.  The result is in
    range-plus-null form: length-p eigenvalues (the p - r null ones exactly
    0) and a p x r eigenvector block, kept factored as C B with
    B = W / sqrt(n lambda) (see SpectralDecomposition).  The Gram matrix goes
    through the same symmetry check and clip as the p x p path, and the same
    DomainError when its products overflow.
    """
    if not pair.gram_side:
        return spectral_decompose(pair.scm)
    c = _centred(pair)
    with np.errstate(over="ignore"):  # an overflow is reported by _covariance
        g = np.matmul(c.T, c, out=_take(pair._ws, "gram", (c.shape[1],) * 2))
    g /= pair.n
    gram = spectral_decompose(_covariance(g))
    lam = gram.eigenvalues
    r = int(np.count_nonzero(lam > 0.0))
    b = gram.eigenvectors[:, :r] / np.sqrt(pair.n * lam[:r])
    vals = np.concatenate((lam[:r], np.zeros(pair.p - r)))
    return SpectralDecomposition(vals, None, _owned=True, _factors=(c, b))


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
    d = _finite_array(d, "eigenvalue vector")
    v = _finite_array(v, "vector")
    if d.shape != (decomp.p,) or v.shape != (decomp.p,):
        raise StructuralError(
            f"expected length-{decomp.p} vectors, got {d.shape} and {v.shape}"
        )
    if np.any(d <= 0.0):
        raise DomainError("non-positive eigenvalue: matrix is not positive definite")
    if decomp._b is not None:  # a factored block: U'v = B'(C'v)
        proj = decomp._b.T @ (decomp._c.T @ v)
    else:
        proj = decomp.eigenvectors.T @ v
    r = proj.size
    if r == decomp.p:
        return float(np.sum(proj * proj / d))
    if np.any(d[r:] != d[r]):
        raise StructuralError("null-space entries of d must all be equal")
    null = max(float(v @ v) - float(proj @ proj), 0.0)
    return float(np.sum(proj * proj / d[:r])) + null / d[r]


def weighted_norms(decomp: SpectralDecomposition, diag: np.ndarray) -> np.ndarray:
    """u_i' R u_i for each eigenvector column u_i of U, R = diag(diag).

    For an explicit block this is sum_j diag_j U_ji^2.  For a factored one
    it uses ||u_i|| = 1: 1 + sum over the rows j with diag_j != 1 of
    (diag_j - 1) (C_j B)_i^2, so it costs O(N r) per such row, and only
    those rows of C B are formed.
    """
    if decomp._b is None:
        u = decomp.eigenvectors
        w = u * u
        w *= diag[:, None]
        return w.sum(axis=0)
    rows = np.flatnonzero(diag != 1.0)
    cb = decomp._c[rows] @ decomp._b
    cb *= cb
    w = (diag[rows] - 1.0) @ cb
    w += 1.0
    return w


def read_matrix_csv(path) -> np.ndarray:
    """Read a matrix from CSV: one row per line, plain decimal, no header.

    numpy's parser reads it; a malformed file is a StructuralError naming
    the path and numpy's reason (without its advice on loadtxt's options,
    which the caller cannot pass), a missing one an OSError.
    """
    try:
        with warnings.catch_warnings():  # an empty file is reported below instead
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            out = np.loadtxt(path, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise StructuralError(f"{path}: {str(exc).split('; use', 1)[0]}") from exc
    if out.size == 0:
        raise StructuralError(f"{path}: empty matrix file")
    return _finite_array(out, f"{path}")


def _write_csv(path, header: str | None, rows) -> None:
    """Write rows of cells as CSV, after the header line if one is given.

    A str cell is written as it is; any other is written as
    repr(float(cell)), the shortest decimal that reads back to the same
    double.  The program's numeric CSV files all go through here.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in rows:
            fh.write(",".join([c if isinstance(c, str) else repr(float(c)) for c in row]) + "\n")


def write_matrix_csv(path, m: np.ndarray) -> None:
    """Write a matrix as CSV with full round-trip precision (shortest repr)."""
    _write_csv(path, None, np.atleast_2d(np.asarray(m, dtype=float)).tolist())
