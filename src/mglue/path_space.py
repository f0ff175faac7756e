"""Discrete W^{1,2} path spaces on uniform grids.

Paths live on [t_min, t_max] with an odd number of uniformly spaced nodes
(so that s = 0 is a node whenever the interval is symmetric).  All operations
are pure; Grid and DiscretePath instances are treated as immutable values.

The discrete L^2 inner product is defined once, by its diagonal weights
l2_weights (the trapezoidal weights), and the W^{1,2} one by its Gram matrix
w12_gram (those weights, and the diff_matrix stencil for the derivative);
the norms are the square roots of their quadratic forms, and sup_norm is the
one nodewise sup.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, dgttrs
from scipy.sparse import csr_matrix, diags, identity, kron


# fewest nodes a Grid may have
MIN_NODES = 9


@dataclass(frozen=True)
class Grid:
    """A uniform grid, equal to another with the same three fields.  Its
    hash is computed once, at construction: the per-grid caches below look
    a grid up on every call."""
    t_min: float
    t_max: float
    n_nodes: int

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError("need t_min < t_max")
        if self.n_nodes < MIN_NODES:
            raise ValueError("need at least %d nodes" % MIN_NODES)
        if self.n_nodes % 2 == 0:
            raise ValueError("n_nodes must be odd")
        object.__setattr__(self, "_hash",
                           hash((self.t_min, self.t_max, self.n_nodes)))

    def __hash__(self):
        return self._hash

    @property
    def h(self):
        return (self.t_max - self.t_min) / (self.n_nodes - 1)

    @property
    def nodes(self):
        return self.t_min + self.h * np.arange(self.n_nodes)


def grid_unit(h_max):
    """The least m with grid spacing 1/m <= h_max, to a relative 1e-12, so
    that the spacing of any grid gives back its own m (1 / grid.h is m only
    up to a few ulps, more than 1e-12 once m is in the tens of thousands)."""
    return ceil(1.0 / h_max * (1.0 - 1e-12))


def on_grid(t, h_max, step=1):
    """Whether t is a multiple of step/m, m = grid_unit(h_max), to 1e-9 in
    units of step/m."""
    x = t * grid_unit(h_max) / step
    return abs(x - round(x)) <= 1e-9


def make_grid(t_min, t_max, h_max=0.02):
    """Uniform grid with spacing h = 1/m <= h_max so that integer breakpoints
    (in particular +-1, +-3) land on nodes whenever the endpoints are
    multiples of 1/m.  Endpoints must be (near-)multiples of the unit 1/m."""
    m = grid_unit(h_max)
    h = 1.0 / m
    lo = round(t_min * m)
    hi = round(t_max * m)
    if abs(lo / m - t_min) > h / 2 or abs(hi / m - t_max) > h / 2:
        raise ValueError("endpoints not resolvable at spacing 1/%d" % m)
    n = hi - lo + 1
    if n % 2 == 0:
        raise ValueError("endpoints give an even node count at spacing 1/%d" % m)
    return Grid(lo / m, hi / m, n)


def symmetric_grid(T, h_max=0.02):
    """Grid on [-T, T] resolving 0, +-1, +-3 as nodes."""
    return make_grid(-T, T, h_max)


@dataclass(frozen=True)
class DiscretePath:
    grid: Grid
    samples: np.ndarray  # shape (n_nodes, dim)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if s.ndim != 2:
            raise ValueError("samples must be 1-D or 2-D")
        if s.shape[0] != self.grid.n_nodes:
            raise ValueError("sample count does not match grid")
        if not np.isfinite(s).all():
            raise ValueError("non-finite samples")
        object.__setattr__(self, "samples", s)

    @property
    def dim(self):
        return self.samples.shape[1]


@dataclass(frozen=True)
class PathNorms:
    l2: float
    w12: float


def zero_path(grid, dim):
    return DiscretePath(grid, np.zeros((grid.n_nodes, dim)))


def diff_matrix(grid):
    """Sparse (n_nodes, n_nodes) CSR matrix of the second-order stencils of
    differentiate: central differences at interior nodes, one-sided at the
    two endpoints.  Built from index arrays on every call."""
    n = grid.n_nodes
    h = grid.h
    indptr = np.concatenate([[0], 3 + 2 * np.arange(n - 1), [2 * n + 2]])
    indices = np.concatenate([[0, 1, 2],
                              (np.arange(n - 2)[:, None] + [0, 2]).ravel(),
                              [n - 3, n - 2, n - 1]])
    data = np.concatenate([[-1.5 / h, 2.0 / h, -0.5 / h],
                           np.tile([-0.5 / h, 0.5 / h], n - 2),
                           [0.5 / h, -2.0 / h, 1.5 / h]])
    return csr_matrix((data, indices, indptr), shape=(n, n))


# grids whose stencil band stays cached: a (5, n_nodes) array each, 60 kB at
# the 1501 nodes of S = 30, h = 0.02; also the (grid, dim, n_stable) triples
# whose flow-band template stays cached, a (6 dim + 1, n_nodes dim) array
# each, about 230 kB at 1101 nodes, dim 2; and the (grid, dim) pairs whose
# L^2 weights and W^{1,2} Gram stay cached, about 115 kB for the two at 1201
# nodes, dim 2
STENCIL_CACHE_SIZE = 32


@lru_cache(maxsize=STENCIL_CACHE_SIZE)
def _stencil_band(grid):
    """diff_matrix(grid) in band form: entry (p, q), |p - q| <= 2, in row
    2 + p - q of column q of a read-only (5, n_nodes) array.  Cached per
    grid, so diff_matrix runs on a grid's first factor only."""
    D = diff_matrix(grid)
    band = np.zeros((5, grid.n_nodes))
    p = np.repeat(np.arange(grid.n_nodes), np.diff(D.indptr))
    band[2 + p - D.indices, D.indices] = D.data
    band.setflags(write=False)
    return band


def kt_rows(n_nodes, dim, n_stable):
    """Indices, in the flattened node-major layout, of the K_T boundary rows:
    the n_stable stable components at the first node, then the unstable
    components at the last node."""
    return np.concatenate([np.arange(n_stable),
                           np.arange((n_nodes - 1) * dim + n_stable,
                                     n_nodes * dim)])


def kt_values(dim, n_stable, v_plus=0.0, v_minus=0.0):
    """Boundary data in the order of kt_rows: v_plus on the stable rows of
    the first node, v_minus on the unstable rows of the last node."""
    return np.concatenate([np.broadcast_to(v_plus, (n_stable,)),
                           np.broadcast_to(v_minus, (dim - n_stable,))])


@lru_cache(maxsize=STENCIL_CACHE_SIZE)
def _flow_band_template(grid, dim, n_stable):
    """The J-independent part of _flow_band for dim components, read-only:
    diff_matrix acting on each component, with the K_T boundary rows
    (kt_rows) replaced by identity rows.  Cached per (grid, dim, n_stable),
    so a factor copies it and adds only J."""
    k = 2 * dim
    size = grid.n_nodes * dim
    diag = 2 * k
    ab = np.zeros((size, 3 * k + 1)).T
    # entry (p, q) of diff_matrix, |p - q| <= 2, acts on each component
    # c as the entry (p dim + c, q dim + c): on row diag + (p - q) dim
    ab[diag - k:diag + k + 1:dim] = np.repeat(_stencil_band(grid), dim, axis=1)
    rows = kt_rows(grid.n_nodes, dim, n_stable)
    j = rows[:, None] + np.arange(-k, k + 1)
    inside = (j >= 0) & (j < size)
    ab[(diag + rows[:, None] - j)[inside], j[inside]] = 0.0
    ab[diag, rows] = 1.0
    ab.setflags(write=False)
    return ab


def _flow_band(grid, jac_blocks, n_stable):
    """Collocation matrix of the linearized flow d/ds + J(s) on flattened
    node-major samples: diff_matrix acting on each component, plus the block
    diagonal of the (n_nodes, dim, dim) blocks J(s_j), with the K_T boundary
    rows (kt_rows) replaced by identity rows.  The one-sided end stencils
    reach two nodes, so the band has kl = ku = k = 2 dim.  It is returned in
    Fortran-ordered LAPACK band storage, which dgbtrf factors in place: row
    2k + i - j of column j holds entry (i, j), and rows 0..k-1 are zero.
    It is a copy of the cached _flow_band_template with J added off the
    K_T rows, so J there, even inf or nan, never reaches the matrix."""
    N, n, _ = jac_blocks.shape
    if N != grid.n_nodes:
        raise ValueError("Jacobian blocks do not match the grid")
    diag = 4 * n
    ab = _flow_band_template(grid, n, n_stable).copy(order="F")
    # by[r, q, c] is row r of ab in column q n + c, a view (splitting the
    # last axis of a Fortran-ordered array copies nothing); block q of J
    # holds the entries (q n + a, q n + b)
    by = ab.reshape(-1, N, n)
    for a in range(n):
        # row q n + a is a K_T row at the first node if a is stable, at the
        # last node if not
        q = slice(1, None) if a < n_stable else slice(None, -1)
        for b in range(n):
            if a == b:
                by[diag, q, b] += jac_blocks[q, a, b]
            else:
                by[diag + a - b, q, b] = jac_blocks[q, a, b]
    return ab


class FlowLU:
    """LU factors of the band M = _flow_band(grid, jac_blocks, n_stable),
    factored in place by dgbtrf; solve applies M^{-1} by dgbtrs."""

    def __init__(self, grid, jac_blocks, n_stable):
        ab = _flow_band(grid, jac_blocks, n_stable)
        self.k = k = 2 * jac_blocks.shape[1]
        self._lu, self._piv, info = dgbtrf(ab, k, k, overwrite_ab=1)
        if info != 0:
            raise RuntimeError("flow operator is singular (dgbtrf info %d)"
                               % info)

    def solve(self, rhs):
        """The solution x of M x = rhs for rhs of shape (size,) or
        (size, k)."""
        x, info = dgbtrs(self._lu, self.k, self.k, rhs, self._piv)
        if info != 0:
            raise RuntimeError("band solve failed (dgbtrs info %d)" % info)
        return x


class DiagonalFlowLU:
    """LU of the flow operator M = _flow_band(grid, J, n_stable) for the
    constant diagonal J = diag(a), which splits into one system per
    component: diff_matrix plus a_c, with the K_T identity row at the left
    end if c is stable and at the right end if not.  The one-sided stencil
    at the other end reaches two nodes; adding a multiple of its neighbour
    row (the row operation E_c) cancels that second off-diagonal entry, so
    T_c = E_c M_c is tridiagonal.  Each T_c is factored by dgttrf, and solve
    applies M_c^{-1} = T_c^{-1} E_c per component by dgttrs, on the
    node-major layout of FlowLU."""

    def __init__(self, grid, a, n_stable):
        a = np.asarray(a, dtype=float)
        N = grid.n_nodes
        self.shape = (N, a.size)
        self.n_stable = n_stable
        # entry (p, q) of diff_matrix is band[2 + p - q, q]
        band = _stencil_band(grid)
        # rows N-1 += mult_right row N-2 and 0 += mult_left row 1 cancel
        # the entries (N-1, N-3) and (0, 2)
        self.mult_right = -band[4, N - 3] / band[3, N - 3]
        self.mult_left = -band[0, 2] / band[1, 2]
        self._factors = []
        for c, ac in enumerate(a):
            dl = band[3, :-1].copy()
            d = band[2] + ac
            du = band[1, 1:].copy()
            if c < n_stable:
                d[0], du[0] = 1.0, 0.0
                m = self.mult_right
                dl[-1] += m * d[-2]
                d[-1] += m * du[-1]
            else:
                d[-1], dl[-1] = 1.0, 0.0
                m = self.mult_left
                du[0] += m * d[1]
                d[0] += m * dl[0]
            *lu, info = dgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1,
                               overwrite_du=1)
            if info != 0:
                raise RuntimeError("flow operator is singular (dgttrf info "
                                   "%d)" % info)
            self._factors.append(lu)

    def solve(self, rhs):
        """The solution x of M x = rhs for rhs of shape (size,) or (size, k)
        in the node-major layout."""
        N, n = self.shape
        if rhs.shape[0] != N * n:
            raise ValueError("right-hand side does not match the operator")
        ns = self.n_stable
        # b[c].T is component c as an (N, k) Fortran array for dgttrs
        b = np.empty((n, rhs.size // (N * n), N))
        b[...] = rhs.reshape(N, n, -1).transpose(1, 2, 0)
        b[:ns, :, -1] += self.mult_right * b[:ns, :, -2]
        b[ns:, :, 0] += self.mult_left * b[ns:, :, 1]
        out = np.empty((N, n, b.shape[1]))
        for c, lu in enumerate(self._factors):
            x, info = dgttrs(*lu, b[c].T, overwrite_b=1)
            if info != 0:
                raise RuntimeError("tridiagonal solve failed (dgttrs info "
                                   "%d)" % info)
            out[:, c] = x
        return out.reshape(rhs.shape)


def stencil_derivative(w, h):
    """d/ds of raw (n_nodes, dim) samples at spacing h by the second-order
    stencils of diff_matrix (central inside, one-sided at the ends)."""
    out = np.empty_like(w)
    out[1:-1] = (w[2:] - w[:-2]) / (2.0 * h)
    out[0] = (-1.5 * w[0] + 2.0 * w[1] - 0.5 * w[2]) / h
    out[-1] = (1.5 * w[-1] - 2.0 * w[-2] + 0.5 * w[-3]) / h
    return out


def differentiate(p):
    """d/ds by second-order stencils (central inside, one-sided at the ends)."""
    return DiscretePath(p.grid, stencil_derivative(p.samples, p.grid.h))


def trapezoid_weights(grid):
    w = np.full(grid.n_nodes, grid.h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@lru_cache(maxsize=STENCIL_CACHE_SIZE)
def l2_weights(grid, dim):
    """Weights of the discrete L^2 inner product (the trapezoidal weights,
    repeated per component) on flattened node-major samples, the definition
    of that product: <u, v> = u @ (w * v).  Read-only, cached per
    (grid, dim)."""
    w = np.repeat(trapezoid_weights(grid), dim)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=STENCIL_CACHE_SIZE)
def w12_gram(grid, dim):
    """Gram matrix of the discrete W^{1,2} inner product on flattened
    node-major samples, the definition of that product: trapezoidal L^2 of
    the path plus that of its diff_matrix derivative.  Sparse, read-only,
    cached per (grid, dim)."""
    W = diags(trapezoid_weights(grid))
    D1 = diff_matrix(grid)
    G = kron(W + D1.T @ W @ D1, identity(dim, format="csr"), format="csr")
    for a in (G.data, G.indices, G.indptr):
        a.setflags(write=False)
    return G


def l2_norm(p):
    v = p.samples.reshape(-1)
    return float(np.sqrt(v @ (l2_weights(p.grid, p.dim) * v)))


def sup_norm(p):
    # max of square roots = square root of the max: sqrt is monotone
    return float(np.sqrt(np.einsum("ij,ij->i", p.samples, p.samples).max()))


def norms(p):
    """L2 and W^{1,2} norms of a path, each the square root of its quadratic
    form (l2_weights, w12_gram); an overflowing form gives inf or nan."""
    v = p.samples.reshape(-1)
    return PathNorms(l2=float(np.sqrt(v @ (l2_weights(p.grid, p.dim) * v))),
                     w12=float(np.sqrt(v @ (w12_gram(p.grid, p.dim) @ v))))
