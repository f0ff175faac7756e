"""Linear analysis at the constant trajectory 0_T on [-T, T].

Provides the operator D: zeta -> d/ds zeta + A zeta, the explicit kernel
parametrization, the projection onto the kernel along the complement K_T
(paths whose stable component vanishes at -T and unstable component at +T),
two right inverses with image in K_T, each a solve with a cached LU (the
componentwise exponential-integrator Duhamel recursion, a sparse LU, and the
discretized operator, one tridiagonal LU per component since A is diagonal),
the infinitesimal gluing map, and norm bounds.

glue corrects with the discretized-operator solve, which maps flattened
node-major samples of shape (size,) or (size, k) to arrays of that shape;
mglue constants, mglue verify and criterion 04 measure the Duhamel Q.  The
norms are those of path_space (the L^2 weights l2_weights and the W^{1,2}
Gram w12_gram).  The kernel projection Pi = E S^T (projection_matrix) is a
sparse matrix of rank n, and its W^{1,2} norm is exact: an n x n
eigenproblem after one sparse solve.  The norm of the Duhamel Q from L^2 to
W^{1,2} is a converged Lanczos eigenvalue (eigsh) of Q^T G_out Q whitened by
the L^2 weights, from a fixed start vector, so no measured norm depends on
a seed.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix, diags, identity
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .path_space import (DiagonalFlowLU, DiscretePath, differentiate,
                         grid_unit, kt_rows, l2_weights, on_grid,
                         symmetric_grid, w12_gram)


@dataclass(frozen=True)
class KernelElement:
    """Kernel coefficients: v_plus at s = -T (stable), v_minus at s = +T."""
    v_plus: np.ndarray
    v_minus: np.ndarray


class LinearTheory:
    """Per-(model, T) bundle of the linear operators and constants."""

    def __init__(self, model, T, h_max, constants):
        if T < 1:
            raise ValueError("need T >= 1")
        if not on_grid(T, h_max):
            raise ValueError("T = %r is not a node of the grid of spacing "
                             "1/%d" % (T, grid_unit(h_max)))
        self.model = model
        self.T = float(T)
        self.grid = symmetric_grid(T, h_max)
        self.constants = constants

    @cached_property
    def _exact_lu(self):
        """LU of the discretized D = d/ds + A with K_T boundary rows, the
        flow operator with the constant Jacobian J = A = diag(a): one
        tridiagonal dgttrf factor per component (DiagonalFlowLU)."""
        return DiagonalFlowLU(self.grid, self.model.a, self.model.n_stable)

    @cached_property
    def _kt_rows(self):
        """kt_rows of the grid: the boundary rows that apply_Q_exact zeroes,
        projection_matrix reads and glue's correction leaves at 0."""
        return kt_rows(self.grid.n_nodes, self.model.dim, self.model.n_stable)

    @cached_property
    def _duhamel_lu(self):
        """(LU of L, R, R^T) of the Duhamel right inverse
        Q = L^{-1} R on node-major samples.  Row k*n + i of L z = R e is the
        trapezoidal step z[k] - f z[p] = s h/2 (e[k] + f e[p]) of component
        i, f = exp(-|a_i| h), from p = k - 1, s = 1 if stable and p = k + 1,
        s = -1 if unstable.  The K_T rows, with no previous node p, read
        z = 0.  q_matrix's adjoint multiplies by the stored R^T."""
        m = self.model
        N = self.grid.n_nodes
        size = N * m.dim
        keep = np.ones(size)
        keep[kt_rows(N, m.dim, m.n_stable)] = 0.0
        rows = np.flatnonzero(keep)
        sign = np.tile(np.where(m.a > 0, 1, -1), N)
        f = np.tile(np.exp(-np.abs(m.a) * self.grid.h), N)
        step = csr_matrix((f[rows], (rows, rows - m.dim * sign[rows])),
                          shape=(size, size))
        eye = identity(size, format="csr")
        half = diags(0.5 * self.grid.h * sign * keep)
        R = half @ (eye + step)
        return splu((eye - step).tocsc()), R, R.T


def _check_grid(lt, p):
    if p.grid.n_nodes != lt.grid.n_nodes or \
            abs(p.grid.t_min - lt.grid.t_min) > 1e-12 or \
            abs(p.grid.t_max - lt.grid.t_max) > 1e-12:
        raise ValueError("path grid does not match the bundle grid")


def apply_D(lt, zeta):
    """d/ds zeta + A zeta, nodewise."""
    _check_grid(lt, zeta)
    dz = differentiate(zeta)
    return DiscretePath(zeta.grid, dz.samples + zeta.samples * lt.model.a)


def kernel_path(lt, ke):
    """Realize kernel coefficients as the explicit exponential path."""
    s = lt.grid.nodes
    m = lt.model
    plus = np.exp(-np.outer(s + lt.T, m.a_plus)) * np.asarray(ke.v_plus)
    minus = np.exp(np.outer(s - lt.T, m.a_minus)) * np.asarray(ke.v_minus)
    return DiscretePath(lt.grid, np.concatenate([plus, minus], axis=1))


def apply_Q(lt, eta):
    """Right inverse by componentwise Duhamel recursion.

    Stable components integrate forward from -T with zero initial value,
    unstable components backward from +T; the in-kernel local integral uses
    the trapezoidal rule.  One solve with the cached LU (_duhamel_lu); the
    image lies in K_T exactly."""
    _check_grid(lt, eta)
    lu, R, _ = lt._duhamel_lu
    z = lu.solve(R @ eta.samples.reshape(-1))
    return DiscretePath(eta.grid, z.reshape(eta.samples.shape))


def apply_Q_exact(lt, eta):
    """Right inverse by the per-component tridiagonal solve (_exact_lu) of
    the discretized D with K_T boundary rows; D o Q = Id on all enforced rows
    to machine precision.  eta holds flattened node-major samples, of shape
    (size,) or (size, k), and the image has its shape; its K_T rows are read
    as zero.  The k columns are one solve, each column the bits of its own
    single solve.  ValueError on a wrong length or a non-finite sample."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim not in (1, 2) or \
            eta.shape[0] != lt.grid.n_nodes * lt.model.dim:
        raise ValueError("sample count does not match the bundle grid")
    if not np.isfinite(eta).all():
        raise ValueError("non-finite samples")
    rhs = eta.copy()
    rhs[lt._kt_rows] = 0.0
    return lt._exact_lu.solve(rhs)


def gamma_infinitesimal(lt, xi0, eta0):
    """Infinitesimal gluing: coefficients (xi0, eta0) of the stable/unstable
    kernel elements, realized as the explicit glued kernel path."""
    if lt.T < 3:
        raise ValueError("need T >= 3")
    return kernel_path(lt, KernelElement(v_plus=np.atleast_1d(xi0),
                                         v_minus=np.atleast_1d(eta0)))


def gamma_weights(lt):
    """Diagonal weights of the exact W^{1,2} coefficient inner products:
    (domain weight, image weight) per eigenvalue."""
    a = np.abs(lt.model.a)
    dom = (1.0 + a**2) / (2.0 * a)
    img = dom * (1.0 - np.exp(-4.0 * lt.T * a))
    return dom, img


def gamma_svd_bounds(lt):
    """(op_norm, min_singular) of the infinitesimal gluing map in the exact
    weighted coefficient inner products (diagonal, so closed form)."""
    if lt.T < 3:
        raise ValueError("need T >= 3")
    dom, img = gamma_weights(lt)
    sv = np.sqrt(img / dom)
    return float(np.max(sv)), float(np.min(sv))


def euclidean_gluing_reference(lt, w_plus_0, w_minus_0):
    """Closed-form glued flow line of the Euclidean model on lt's grid:
    s -> exp(-(s+T)A) w_+(0) + exp((T-s)A) w_-(0), the kernel path of
    p_+ w_+(0) and p_- w_-(0) (the other components of the two end values
    are 0 on the Euclidean half trajectories)."""
    m = lt.model
    if m.nonlinearity:
        raise ValueError("reference requires the Euclidean (linear) model")
    return kernel_path(lt, KernelElement(v_plus=m.p_plus(w_plus_0),
                                         v_minus=m.p_minus(w_minus_0)))


# ---------------------------------------------------------------------------
# measured operator norms

def measured_opnorm(M, gram_out, w_in):
    """Largest singular value of the operator M from the L^2-type space of
    the diagonal weights w_in (l2_weights) to the space of the sparse Gram
    matrix gram_out: sqrt of the top eigenvalue of
    M^T G_out M v = lam diag(w_in) v.  Whitened by dividing by sqrt(w_in),
    that is the top eigenvalue of a symmetric matrix, converged by
    implicitly restarted Lanczos in standard mode from the fixed start
    vector (cos 0, cos 1, ..., cos(n-1)), so the value depends on M and the
    two norms only.  On the shipped models that vector needs fewer Lanczos
    steps than the mean of random starts, and the vector of ones up to
    twice as many.  A Ritz value is a lower bound of the operator norm."""
    root = np.sqrt(w_in)
    n = root.size

    def matvec(x):
        return M.T @ (gram_out @ (M @ (np.ravel(x) / root))) / root

    lam = eigsh(LinearOperator((n, n), dtype=float, matvec=matvec), k=1,
                which="LA", v0=np.cos(np.arange(n)),
                return_eigenvectors=False)
    return float(np.sqrt(lam[0]))


def projection_matrix(lt):
    """The kernel projection Pi = E S^T on flattened samples as a sparse
    matrix of rank n: S selects the kt_rows, and column kt_rows[c] of Pi is
    column c of E, the kernel basis path of component c."""
    m = lt.model
    E = kernel_path(lt, KernelElement(np.ones(m.n_stable),
                                      np.ones(m.dim - m.n_stable))).samples
    cols = np.tile(lt._kt_rows, lt.grid.n_nodes)
    return csr_matrix((E.ravel(), (np.arange(E.size), cols)),
                      shape=(E.size, E.size))


def measured_projection_norm(lt):
    """The exact W^{1,2} operator norm of Pi = E S^T, G = w12_gram: with
    u = S^T v, |Pi v|_G^2 = u^T (E^T G E) u, and the least |v|_G^2 with
    S^T v = u is u^T (S^T G^{-1} S)^{-1} u, so the norm is the square root
    of the top eigenvalue of (E^T G E)(S^T G^{-1} S).  One sparse solve on
    the n columns of S, then an n x n symmetric eigenproblem through the
    Cholesky factor L L^T of S^T G^{-1} S."""
    G = w12_gram(lt.grid, lt.model.dim)
    rows = lt._kt_rows
    S = np.zeros((G.shape[0], rows.size))
    S[rows, np.arange(rows.size)] = 1.0
    E = projection_matrix(lt) @ S
    L = np.linalg.cholesky(splu(G.tocsc()).solve(S)[rows])
    lam = np.linalg.eigvalsh(L.T @ (E.T @ (G @ E)) @ L)
    return float(np.sqrt(lam[-1]))


def q_matrix(lt):
    """The Duhamel right inverse apply_Q on flattened sample vectors as a
    LinearOperator (not the LU right inverse apply_Q_exact that glue
    corrects with).  Its adjoint is R^T L^{-T}, with the LU of L."""
    lu, _, Rt = lt._duhamel_lu

    def matvec(v):
        eta = DiscretePath(lt.grid, np.reshape(v, (-1, lt.model.dim)))
        return apply_Q(lt, eta).samples.ravel()

    def rmatvec(v):
        return Rt @ lu.solve(np.ravel(v), trans="T")

    return LinearOperator(Rt.shape, dtype=float, matvec=matvec,
                          rmatvec=rmatvec)


def measured_q_norm(lt):
    return measured_opnorm(q_matrix(lt), w12_gram(lt.grid, lt.model.dim),
                           l2_weights(lt.grid, lt.model.dim))
