"""Linear analysis at the constant trajectory 0_T on [-T, T].

Provides the operator D: zeta -> d/ds zeta + A zeta, the explicit kernel
parametrization, the projection onto the kernel along the complement K_T
(paths whose stable component vanishes at -T and unstable component at +T),
two right inverses with image in K_T, each one banded solve per component
since A is diagonal (the exponential-integrator Duhamel recursion, a unit
bidiagonal dtbtrs solve, and the discretized operator, a tridiagonal LU),
the weights of the infinitesimal gluing map, and norm bounds.

glue corrects with the discretized-operator solve, which maps flattened
node-major samples of shape (size,) or (size, k) to arrays of that shape;
mglue constants, mglue verify and criterion 04 measure the Duhamel Q.  The
norms are those of path_space (the L^2 weights l2_weights and the W^{1,2}
Gram w12_gram).  Q, both norms and the kernel projection Pi = E S^T
(projection_matrix, a sparse matrix of rank n) decouple by component, so
Pi's W^{1,2} norm has a closed form, a maximum over the components, and
the norm of the Duhamel Q from L^2 to W^{1,2} is taken over the distinct
rates |a_i|: the top Lanczos Ritz value (eigsh) of Q^T G_out Q whitened by
the L^2 weights, from a fixed start vector, so no measured norm depends on a
seed.  Lanczos stops once the residual of that Ritz value is at most
LANCZOS_TOL times the value; a Ritz value is a Rayleigh quotient, so it
stays a lower bound of the top eigenvalue, and its error is at most
(LANCZOS_TOL theta)^2 / gap, quadratic in the residual (measured_opnorm).
"""

from functools import cached_property, partial

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, aslinearoperator, eigsh

from .invariant_manifolds import linear_half_path
from .morse_model import MIN_GLUING_T, MorseModel
from .path_space import (DiagonalFlowLU, DiscretePath, kt_rows, l2_weights,
                         stencil_derivative, symmetric_grid, w12_gram)


def measurement_slack(h):
    """1 + 5h: a norm measured at grid spacing h meets its bound times this."""
    return 1.0 + 5.0 * h


class LinearTheory:
    """Per-(model, T) bundle of the linear operators and constants."""

    def __init__(self, model, T, h_max, constants):
        if T < 1:
            raise ValueError("need T >= 1")
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
        """(bands, r0, r1) of the Duhamel right inverse Q = L^{-1} R, one
        system per component c since A is diagonal.  Row k of L_c z = R_c e
        is the trapezoidal step z[k] - f z[p] = s h/2 (e[k] + f e[p]),
        f = exp(-|a_c| h), from p = k - 1, s = 1 if c is stable and from
        p = k + 1, s = -1 if not.  The K_T row, with no previous node p,
        reads z = 0.  bands[c] is the unit bidiagonal L_c in LAPACK band
        storage for dtbtrs (kd = 1, diag = 'U', so the unit row is unread):
        -f below the diagonal (uplo = 'L') if c is stable, above it
        (uplo = 'U') if not.  r0 = s h/2 and r1 = s h f/2, per component,
        are the coefficients of R."""
        a = self.model.a
        h = self.grid.h
        f = np.exp(-np.abs(a) * h)
        bands = []
        for c, fc in enumerate(f):
            band = np.ones((2, self.grid.n_nodes), order="F")
            if c < self.model.n_stable:
                band[1, :-1] = -fc
            else:
                band[0, 1:] = -fc
            bands.append(band)
        r0 = np.where(a > 0, 0.5, -0.5) * h
        return bands, r0[:, None], (r0 * f)[:, None]


def apply_D(lt, zeta):
    """d/ds zeta + A zeta, nodewise, of flattened node-major samples of
    shape (size,) or (size, k), column by column, returned in that shape."""
    w = zeta.reshape(lt.grid.n_nodes, lt.model.dim, -1)
    out = stencil_derivative(w, lt.grid.h) + w * lt.model.a[:, None]
    return out.reshape(zeta.shape)


def kernel_path(lt, v_plus, v_minus):
    """The kernel path of v_plus at s = -T (stable) and v_minus at s = +T
    (unstable): linear_half_path of v_plus at s + T and of v_minus at s - T."""
    s = lt.grid.nodes
    m = lt.model
    samples = linear_half_path(m, "stable", v_plus, s + lt.T)
    samples[:, m.n_stable:] = linear_half_path(m, "unstable", v_minus,
                                               s - lt.T)[:, m.n_stable:]
    return DiscretePath(lt.grid, samples)


def _duhamel_solve(lt, rhs, trans):
    """L^{-1} rhs (trans 'N') or L^{-T} rhs (trans 'T') of _duhamel_lu, for
    rhs of shape (n, n_nodes) with row c component c: one dtbtrs per
    component.  A unit triangular solve has no pivot that can vanish."""
    ns = lt.model.n_stable
    out = np.empty(rhs.shape)
    for c, band in enumerate(lt._duhamel_lu[0]):
        out[c] = dtbtrs(band, rhs[c], uplo="L" if c < ns else "U",
                        trans=trans, diag="U")[0]
    return out


def apply_Q(lt, eta):
    """Right inverse by componentwise Duhamel recursion.

    Stable components integrate forward from -T with zero initial value,
    unstable components backward from +T; the in-kernel local integral uses
    the trapezoidal rule.  eta holds flattened node-major samples of shape
    (size,), and so does the image.  R applied on shifted slices, then one
    unit bidiagonal solve per component (_duhamel_lu); the image lies in K_T
    exactly."""
    _, r0, r1 = lt._duhamel_lu
    ns = lt.model.n_stable
    e = np.reshape(eta, (-1, lt.model.dim)).T
    # R e, with the K_T row (first node if stable, last if not) left at 0
    rhs = np.zeros(e.shape)
    rhs[:ns, 1:] = r0[:ns] * e[:ns, 1:] + r1[:ns] * e[:ns, :-1]
    rhs[ns:, :-1] = r0[ns:] * e[ns:, :-1] + r1[ns:] * e[ns:, 1:]
    return _duhamel_solve(lt, rhs, "N").T.ravel()


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
    if lt.T < MIN_GLUING_T:
        raise ValueError("need T >= %d" % MIN_GLUING_T)
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
    return kernel_path(lt, m.p_plus(w_plus_0), m.p_minus(w_minus_0))


# ---------------------------------------------------------------------------
# measured operator norms

# eigsh's tol: the bound on the top Ritz pair's residual relative to its
# Ritz value at which Lanczos stops (measured_opnorm)
LANCZOS_TOL = 1e-10


def measured_opnorm(M, gram_out, w_in):
    """Largest singular value of the operator M from the L^2-type space of
    the diagonal weights w_in (l2_weights) to the space of the sparse Gram
    matrix gram_out: sqrt of the top eigenvalue of
    M^T G_out M v = lam diag(w_in) v.  Whitened by dividing by sqrt(w_in),
    that is the top eigenvalue of the symmetric positive semidefinite
    B = W^{-1/2} M^T G_out M W^{-1/2}, taken by implicitly restarted Lanczos
    in standard mode from the fixed start vector (cos 0, cos 1, ...,
    cos(n-1)), so the value depends on M and the two norms only.  On the
    shipped models that vector needs fewer Lanczos steps than the mean of
    random starts, and the vector of ones up to twice as many.  M is taken
    once as a LinearOperator, and each product with B is one matvec and one
    rmatvec of it.

    Lanczos stops when the residual r of the top Ritz pair is at most
    LANCZOS_TOL times its Ritz value theta (ARPACK's tol), not when the Ritz
    vector is at machine precision.  The result stays a lower bound of the
    operator norm: theta = y^T B y is a Rayleigh quotient, and no Rayleigh
    quotient of B exceeds its top eigenvalue.  Its error is quadratic in r
    (Kato-Temple): lam - theta <= r^2 / gap <= (LANCZOS_TOL theta)^2 / gap,
    with gap the distance from theta to the rest of the spectrum.  On c1 at
    h = 0.02 the relative gap at the top is 1.7e-4 at T = 3, 8 and 12, so
    the relative error is below 1e-16, under the rounding of the value."""
    root = np.sqrt(w_in)
    n = root.size
    op = aslinearoperator(M)

    def matvec(x):
        return op.rmatvec(gram_out @ op.matvec(np.ravel(x) / root)) / root

    lam = eigsh(LinearOperator((n, n), dtype=float, matvec=matvec), k=1,
                which="LA", v0=np.cos(np.arange(n)), tol=LANCZOS_TOL,
                return_eigenvectors=False)
    return float(np.sqrt(lam[0]))


def projection_matrix(lt):
    """The kernel projection Pi = E S^T on flattened samples as a sparse
    matrix of rank n: S selects the kt_rows, and column kt_rows[c] of Pi is
    column c of E, the kernel basis path of component c."""
    m = lt.model
    E = kernel_path(lt, np.ones(m.n_stable),
                    np.ones(m.dim - m.n_stable)).samples
    cols = np.tile(lt._kt_rows, lt.grid.n_nodes)
    return csr_matrix((E.ravel(), (np.arange(E.size), cols)),
                      shape=(E.size, E.size))


def measured_projection_norm(lt):
    """The exact W^{1,2} operator norm of Pi = E S^T, in closed form.  With
    u = S^T v, |Pi v|_G^2 = u^T (E^T G E) u for G = w12_gram, and the least
    |v|_G^2 with S^T v = u is u^T (S^T G^{-1} S)^{-1} u, so the norm is the
    square root of the top eigenvalue of (E^T G E)(S^T G^{-1} S).  Both
    factors are diagonal: G = kron(G1, I) does not couple components,
    column c of E, the kernel basis path e_c, lives on component c, and
    column c of S is the unit vector of node k_c of component c (the first
    node if c is stable, the last if not).  So
      |Pi|^2 = max_c (e_c^T G1 e_c) (G1^{-1})_{k_c k_c},
    from one Cholesky factor (dpbtrf) of the pentadiagonal G1 and one solve
    (dpbtrs) on the unit vectors of the two end nodes."""
    m = lt.model
    N = lt.grid.n_nodes
    G1 = w12_gram(lt.grid, 1)
    # Pi maps the constant path 1 to the sum of the kernel basis paths,
    # whose component c is e_c
    e = (projection_matrix(lt) @ np.ones(N * m.dim)).reshape(N, m.dim)
    energy = np.einsum("kc,kc->c", e, G1 @ e)
    # lower band storage, kd = 2: row d holds the d-th subdiagonal
    band = np.zeros((3, N))
    for d in range(3):
        band[d, :N - d] = G1.diagonal(-d)
    chol, info = dpbtrf(band, lower=1)
    if info != 0:
        raise RuntimeError("W^{1,2} Gram is not positive definite (dpbtrf "
                           "info %d)" % info)
    ends = np.zeros((N, 2))
    ends[0, 0] = ends[-1, 1] = 1.0
    inv = dpbtrs(chol, ends, lower=1)[0]
    inv_kk = np.where(np.arange(m.dim) < m.n_stable, inv[0, 0], inv[-1, 1])
    return float(np.sqrt(np.max(energy * inv_kk)))


def q_matrix(lt):
    """The Duhamel right inverse apply_Q on flattened sample vectors as a
    LinearOperator (not the LU right inverse apply_Q_exact that glue
    corrects with).  Its adjoint is R^T L^{-T}: the transposed bidiagonal
    solves, then R^T on shifted slices."""
    n = lt.model.dim
    ns = lt.model.n_stable
    _, r0, r1 = lt._duhamel_lu

    def rmatvec(v):
        w = _duhamel_solve(lt, np.reshape(v, (-1, n)).T, "T")
        # R^T reads nothing from the K_T row, which R leaves at 0
        w[:ns, 0] = 0.0
        w[ns:, -1] = 0.0
        out = r0 * w
        out[:ns, :-1] += r1[:ns] * w[:ns, 1:]
        out[ns:, 1:] += r1[ns:] * w[ns:, :-1]
        return out.T.ravel()

    size = lt.grid.n_nodes * n
    return LinearOperator((size, size), dtype=float,
                          matvec=partial(apply_Q, lt), rmatvec=rmatvec)


def measured_q_norm(lt):
    """The L^2 -> W^{1,2} norm of the Duhamel Q of lt, by measured_opnorm
    on the Duhamel Q of the all-stable diagonal model whose eigenvalues are
    the distinct rates |a_i| of lt.model, on lt's grid.  The two norms agree:
      - Q, w12_gram = kron(G1, I) and l2_weights = repeat(w1, n) are block
        diagonal by component, so |Q| is the largest norm of a block
        Q_c from the weights w1 to the Gram G1;
      - a block depends only on the rate |a_c| and on the side of c;
      - the unstable block of a rate is -J Q_s J, with Q_s the stable block
        of that rate and J the reversal of the nodes (substitute
        k -> N-1-k in the recursion);
      - J is an isometry of w1, since the trapezoid weights are symmetric,
        and of G1, since J D1 J = -D1 for the central stencils and for the
        one-sided end stencils of diff_matrix.
    So |Q| is the largest stable-block norm over the distinct rates, the
    norm of the rates model's Q, and each Lanczos step runs on
    n_rates * N samples instead of n * N."""
    rates = np.unique(np.abs(lt.model.a))[::-1]
    k = rates.size
    bundle = LinearTheory(MorseModel(dim=k, index=0, eig=tuple(rates)),
                          lt.T, lt.grid.h, lt.constants)
    return measured_opnorm(q_matrix(bundle), w12_gram(lt.grid, k),
                           l2_weights(lt.grid, k))
