"""Morse models near a critical point at the origin.

A model is f(z) = 1/2 <z, Az> + f_nl(z) with A = diag(a_1 >= ... >= a_{n-k}
> 0 > a_{n-k+1} >= ... >= a_n) and a polynomial perturbation f_nl whose 2-jet
vanishes at 0.  f_nl is held as its monomial terms ((exponents), coefficient);
polynomial text is read into those terms by polynomial_terms, a small
recursive-descent reader with exact rational coefficients.  The module
provides the gradient, the derivative tensors of the gradient up to order 3,
and all model-derived constants.

The radii delta_mu rest on a certified bound on the deviation of the
Hessian from A: one slope per degree of f_nl (deviation_slopes), the smaller
of a Frobenius norm read off the coefficients and the max over a
deterministic net on the sphere plus a Lipschitz term, and the root of the
resulting polynomial in the radius.  No constant depends on a seed.
"""

import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import exp, factorial, inf, isfinite, log, prod, sqrt, ulp
from operator import add, index

import numpy as np


# the highest order of the coded derivative tensors of the gradient
TENSOR_ORDER = 3

# shortest gluing length: the pre-gluing cutoffs at s = +-2 need T >= 3
MIN_GLUING_T = 3.0


# one token of polynomial text: a number, a name x<k> or an operator
_TOKEN = re.compile(r"\s*(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                    r"|x[1-9]\d*|\*\*|[-+*/^()])")


def _add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _mul(p, q):
    out = {}
    for e, c in p.items():
        for f, d in q.items():
            g = tuple(map(add, e, f))
            out[g] = out.get(g, 0) + c * d
    return {e: c for e, c in out.items() if c}


def polynomial_terms(text, dim):
    """Monomial terms ((exponents), coefficient) of a polynomial in
    x1..x<dim> written as text, in descending exponent order.

    The grammar: numbers (3, 0.05, .5, 1e200), the names x1..x<dim>, binary
    and unary + and -, *, / by a nonzero constant, ^ or ** with a
    non-negative integer literal exponent, and parentheses, multiplied out.
    An integer literal is exact and a decimal literal is its double
    float(literal).  The polynomial is a dict {exponents: coefficient},
    added and multiplied exactly in Fractions, and each coefficient is
    rounded to a double once, at the end, so none depends on the order of
    the terms; one beyond the double range is +-inf, which MorseModel
    rejects.  Any other text is a ValueError."""
    error = ValueError("nonlinearity %r is not a polynomial in x1..x%d"
                       % (text, dim))
    tokens, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        if not (m := _TOKEN.match(text, pos)):
            raise error
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")  # the end
    zero = (0,) * dim
    at = 0

    def take(*ops):
        """The next token if it is one of ops, or any token if none given."""
        nonlocal at
        tok = tokens[at]
        if tok and (tok in ops or not ops):
            at += 1
            return tok
        return None

    def expr():  # term ((+|-) term)*
        p = term()
        while op := take("+", "-"):
            p = _add(p, term(), 1 if op == "+" else -1)
        return p

    def term():  # factor ((*|/) factor)*
        p = factor()
        while op := take("*", "/"):
            q = factor()
            if op == "/":
                if set(q) != {zero}:
                    raise error
                q = {zero: Fraction(1) / q[zero]}
            p = _mul(p, q)
        return p

    def factor():  # (+|-) factor | atom ((^|**) integer)?
        if op := take("+", "-"):
            return _add({}, factor(), 1 if op == "+" else -1)
        p = atom()
        if not take("^", "**"):
            return p
        k = take()
        if not (k and k.isdigit()):
            raise error
        k = int(k)
        if len(p) == 1:  # a monomial: no term-by-term products
            ((e, c),) = p.items()
            return {tuple(k * j for j in e): c ** k}
        out = {zero: 1}
        for _ in range(k):
            out = _mul(out, p)
        return out

    def atom():  # number | x<k> | ( expr )
        a = take()
        if not a:
            raise error
        if a[0].isdigit() or a[0] == ".":
            v = float(a)
            c = Fraction(a) if a.isdigit() else Fraction(v) if isfinite(v) \
                else v
            return {zero: c} if c else {}
        if a[0] == "x" and int(a[1:]) <= dim:
            k = int(a[1:])
            return {zero[:k - 1] + (1,) + zero[k:]: 1}
        if a == "(":
            p = expr()
            if take(")"):
                return p
        raise error

    try:
        poly = expr()
    except RecursionError:  # parentheses nested beyond the stack
        raise error from None
    if tokens[at]:
        raise error

    def rounded(c):
        try:
            return float(c)
        except OverflowError:
            return inf if c > 0 else -inf

    return tuple(sorted(((e, rounded(c)) for e, c in poly.items()),
                        reverse=True))


def _derivative_tables(terms, dim):
    """For each order k = 0..TENSOR_ORDER, the nonzero entries of the order-k
    derivative tensor of grad f_nl: (flat index, ((c, ((j, e), ...)), ...)),
    a sum of c * prod z_j**e.  Entry (i, j1.., jk) is differentiated in that
    order, so c is rounded as ((c * e_i) * e_j1) ..., as sympy rounds it."""
    level = {0: terms}
    tables = []
    for _ in range(TENSOR_ORDER + 1):
        level = {k * dim + j: d for k, ts in level.items() for j in range(dim)
                 if (d := tuple((e[:j] + (e[j] - 1,) + e[j + 1:], c * e[j])
                                for e, c in ts if e[j]))}
        tables.append(tuple(
            (k, tuple((c, tuple((j, p) for j, p in enumerate(e) if p))
                      for e, c in ts)) for k, ts in level.items()))
    return tuple(tables)


@dataclass(frozen=True)
class MorseModel:
    dim: int
    index: int
    eig: tuple                 # a_1 >= ... >= a_n, ordered, nonzero
    # f_nl as monomial terms ((exponents), coefficient), or as polynomial
    # text in x1..xn; vanishing 2-jet at 0
    nonlinearity: tuple = ()
    # filled in __post_init__
    _tables: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.eig, dtype=float)
        if len(a) != self.dim:
            raise ValueError("eigenvalue count must equal dim")
        if not np.isfinite(a).all():
            raise ValueError("eig must be finite, got %s"
                             % ", ".join(map(repr, a.tolist())))
        if np.any(np.diff(a) > 1e-14):
            raise ValueError("eigenvalues must be in decreasing order")
        if np.any(a == 0):
            raise ValueError("Hessian must be invertible")
        if np.sum(a < 0) != self.index:
            raise ValueError("index must equal the number of negative eigenvalues")
        object.__setattr__(self, "eig", tuple(float(v) for v in a))
        terms = self.nonlinearity
        if isinstance(terms, str):
            terms = polynomial_terms(terms, self.dim)
        # constants do not change grad f; descending exponents, the order of
        # polynomial_terms
        terms = tuple(sorted(((tuple(map(index, e)), float(c))
                              for e, c in terms if c and any(e)), reverse=True))
        if len(dict(terms)) != len(terms) or \
                any(len(e) != self.dim or min(e) < 0 for e, _ in terms):
            raise ValueError("terms need distinct exponent tuples of length "
                             "dim with entries >= 0")
        bad = [(e, c) for e, c in terms if not np.isfinite(c)]
        if bad:
            raise ValueError("nonlinearity coefficients must be finite, got "
                             + ", ".join("%r for exponents %r" % (c, e)
                                         for e, c in bad))
        object.__setattr__(self, "nonlinearity", terms)
        object.__setattr__(self, "_tables",
                           _derivative_tables(terms, self.dim))
        # vanishing 2-jet / critical point sanity
        if np.linalg.norm(self.grad(np.zeros(self.dim))) > 1e-12:
            raise ValueError("gradient does not vanish at 0")
        if np.linalg.norm(self.dgrad_tensor(np.zeros(self.dim), 1) - self.A,
                          2) > 1e-10:
            raise ValueError("Hessian at 0 does not match eigenvalue list")

    @property
    def A(self):
        return np.diag(self.eig)

    @property
    def a(self):
        return np.asarray(self.eig)

    @property
    def n_stable(self):
        return self.dim - self.index

    @property
    def sigma(self):
        return float(np.min(np.abs(self.a)))

    @property
    def a_plus(self):
        """Positive definite diagonal of the stable block."""
        return self.a[: self.n_stable]

    @property
    def a_minus(self):
        """Positive definite diagonal of the unstable block (sign-flipped)."""
        return -self.a[self.n_stable:]

    def p_plus(self, z):
        return np.asarray(z)[..., : self.n_stable]

    def p_minus(self, z):
        return np.asarray(z)[..., self.n_stable:]

    def nonlinear_tensor(self, z, order):
        """The f_nl part of the order-`order` derivative tensor of grad
        at each point of z (order 0: grad f_nl; order 1: dgrad - A).  Every
        entry is a sum in a fixed order of elementwise products, so a point
        gives the same bits alone as inside a batch."""
        z = np.asarray(z, dtype=float)
        cols = z.reshape(-1, self.dim).T
        vals = np.zeros((cols.shape[1], self.dim ** (order + 1)))
        powers = {}
        for k, ts in self._tables[order]:
            total = None
            for c, factors in ts:
                term = c
                for j, p in factors:
                    if (j, p) not in powers:
                        powers[j, p] = cols[j] if p == 1 else cols[j] ** p
                    term = term * powers[j, p]
                total = term if total is None else total + term
            vals[:, k] = total
        return vals.reshape(z.shape[:-1] + (self.dim,) * (order + 1))

    def grad(self, z):
        """Gradient of f at each point of z, of shape (..., n) like z."""
        z = np.asarray(z, dtype=float)
        return self.a * z + self.nonlinear_tensor(z, 0)

    def dgrad_tensor(self, z, order):
        """Derivative tensor of grad of the given order (1..TENSOR_ORDER).

        Order 1 returns the (n, n) Jacobian of grad; order m returns the
        symmetric (n,)*(m+1) array T with T[i, j1.. jm] = d^m (grad_i).
        z has shape (..., n), a batch of points, and the result has shape
        z.shape[:-1] + (n,)*(m+1)."""
        if not 1 <= order <= TENSOR_ORDER:
            raise ValueError("unsupported tensor order")
        t = self.nonlinear_tensor(z, order)
        return self.A + t if order == 1 else t


def model_e1():
    """Euclidean 2d model: f = (x^2 - y^2)/2, A = diag(1, -1)."""
    return MorseModel(dim=2, index=1, eig=(1.0, -1.0))


def model_c1():
    """Curved 2d model: f = x^2/2 - y^2/2 + 0.1*x^2*y."""
    return MorseModel(dim=2, index=1, eig=(1.0, -1.0),
                      nonlinearity=(((2, 1), 0.1),))


@dataclass(frozen=True)
class ModelConstants:
    sigma: float
    c_rightinv: float
    d_proj: float
    k_gamma_inv: float
    delta_mu: dict          # mu -> delta_mu, for mu in {2, 4, 4k+1}
    T0: float
    epsilon: float
    mu_star: float          # the 4k+1 key
    C_decay: float

    @property
    def delta4(self):
        return self.delta_mu[4.0]


def c_rightinv_formula(model):
    """Per-definite-block right-inverse constant, max over the two blocks."""
    vals = []
    for block in (model.a_plus, model.a_minus):
        if len(block) == 0:
            continue
        a_first = float(np.max(block))
        a_last = float(np.min(block))
        vals.append(sqrt(((a_first + a_last) ** 2 + 1.0) / a_last**2))
    return max(vals)


def d_proj_formula(model):
    a1 = model.a[0]
    an = model.a[-1]
    return sqrt(8.0 * max(1.0 + a1**2, 1.0 + an**2) / (2.0 * model.sigma))


def k_gamma_formula(model):
    return 1.0 / (1.0 - exp(-12.0 * model.sigma))


# grid points per face of the cube whose faces x_i = +1, normalized, are the
# deterministic net on half the unit sphere
NET_FACE_POINTS = 1024
# allowance for floating-point rounding: each net value may err by at most
# ROUNDING times the Frobenius slope, and each slope by ROUNDING relative
ROUNDING = 1e-9


def _frobenius_slope(part):
    """F_k = ||T_k||_F/(k-2)! of the constant k-th derivative tensor T_k of
    one degree-k part: the entries of monomial alpha equal c_alpha alpha! and
    fill k!/alpha! places, so ||T_k||_F^2 = k! sum_alpha alpha! c_alpha^2.
    The sum is exact, in rationals, so that no factorial overflows a float;
    inf when F_k^2 does."""
    k = sum(part[0][0])
    square = sum(factorial(k) * prod(map(factorial, e)) * Fraction(c) ** 2
                 for e, c in part) / factorial(k - 2) ** 2
    try:
        return sqrt(square)
    except OverflowError:
        return inf


def _sphere_net(dim):
    """(unit vectors, r): the grid points with g steps per axis on the dim
    faces x_i = +1 of the cube [-1, 1]^dim, normalized, and their chordal
    covering radius r = sqrt(dim - 1)/g.  g is the largest with at most
    NET_FACE_POINTS points per face.  No points (r = inf) when r >= 1:
    there the net cannot beat the Frobenius slope (deviation_slopes).

    Every unit u is within r of a net vector or of its negative: for i with
    |u_i| maximal, x = u/|u_i| or -x lies on face i, within sqrt(dim - 1)/g
    of a grid point p, and radial projection onto the sphere is 1-Lipschitz
    outside the unit ball, where x and p lie."""
    if dim == 1:
        return np.ones((1, 1)), 0.0
    g = int(NET_FACE_POINTS ** (1.0 / (dim - 1)) + 1e-9) - 1
    if g * g <= dim - 1:
        return np.empty((0, dim)), np.inf
    axis = np.linspace(-1.0, 1.0, g + 1)
    face = np.stack(np.meshgrid(*[axis] * (dim - 1), indexing="ij"),
                    axis=-1).reshape(-1, dim - 1)
    net = np.concatenate([np.insert(face, i, 1.0, axis=1)
                          for i in range(dim)])
    return net / np.linalg.norm(net, axis=1, keepdims=True), sqrt(dim - 1) / g


def deviation_slopes(model):
    """{k: s_k} for each degree k >= 2 of f_nl, with
    sup_{|z| <= rho} ||dgrad(z) - A||_2 <= phi(rho) = sum_k s_k rho^(k-2).

    The degree-k part of f_nl adds H_k(z) = T_k[z^(k-2)]/(k-2)! to dgrad - A,
    where T_k is its constant k-th derivative tensor.  H_k is homogeneous of
    degree k - 2, so s_k only has to bound ||H_k(u)||_2 over unit u.  It is
    1 + ROUNDING times the smaller of two bounds:
      F_k = ||T_k||_F/(k-2)!, since contracting with unit vectors does not
        raise the Frobenius norm, which bounds the spectral norm;
      max_net ||H_k(p)||_2 + L_k r + ROUNDING F_k over the net of
        _sphere_net, which covers every unit u up to sign within r, and
        ||H_k(-u)|| = ||H_k(u)||.  On the unit ball
        dH_k(z)[w] = T_k[z^(k-3), w]/(k-3)!, so H_k is L_k-Lipschitz along
        a chord, with L_k = ||T_k||_F/(k-3)! = (k-2) F_k.  ROUNDING F_k
        covers the rounding of the net values: each entry, and so each
        eigenvalue, errs by a few units of roundoff per term times F_k.
    The factor 1 + ROUNDING covers the rounding of F_k and of the root taken
    from phi.  The net is evaluated only where it can win, L_k r < F_k."""
    net, r = _sphere_net(model.dim)
    parts = {}
    for e, c in model.nonlinearity:
        parts.setdefault(sum(e), []).append((e, c))
    slopes = {}
    for k, part in sorted(parts.items()):
        if k < 2:
            continue  # a term of degree 1 does not reach the Hessian
        frob = _frobenius_slope(part)
        s = frob
        if len(net) and (k - 2) * r < 1.0 and np.isfinite(frob):
            dev = replace(model, nonlinearity=part).nonlinear_tensor(net, 1)
            top = float(np.abs(np.linalg.eigvalsh(dev)).max())
            s = min(s, top + (k - 2) * frob * r + ROUNDING * frob)
        slopes[k] = s * (1.0 + ROUNDING)
    return slopes


def _admissible_radius(slopes, target, cap):
    """Largest rho <= cap with phi(rho) = sum_k s_k rho^(k-2) <= target, by
    bisection of the nondecreasing phi to float resolution."""
    def phi(rho):
        try:
            return sum(s * rho ** (k - 2) for k, s in slopes.items())
        except OverflowError:
            return inf

    if phi(cap) <= target:
        return cap  # nonlinearity too weak to bite before the cap
    lo, hi = 0.0, cap
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if phi(mid) <= target:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise ValueError("no positive admissible radius (degenerate scale)")
    return lo


def compute_constants(model, epsilon=None, C_decay=1.0, delta_max=1.0,
                      rng=None):
    """All model-derived constants: c, d and k from their formulas, delta_mu
    from the certified deviation bound, T0 from the decay prefactor
    C_decay > 0.  `rng` is accepted and unread; no constant depends on a seed.

    delta_mu = rho_mu / 2, where rho_mu is the largest rho <= 2 delta_max
    with phi(rho) <= 1/(mu c) (deviation_slopes).  For |z| <= rho_mu,
    splitting f_nl by degree,
      ||dgrad(z) - A||_2 = ||sum_k H_k(z)||_2 <= sum_k ||H_k(z)||_2
                         <= sum_k s_k |z|^(k-2) <= phi(rho_mu) <= 1/(mu c),
    since each ||H_k(z)||_2 = |z|^(k-2) ||H_k(z/|z|)||_2 and phi is
    nondecreasing; the last step holds to a few units of roundoff, which
    the factor 1 + ROUNDING in each s_k covers.  No positive root (an
    infinite slope, say) is a ValueError."""
    sigma = model.sigma
    if epsilon is None:
        epsilon = 0.9 * sigma
    if not 0.0 < epsilon < sigma:
        raise ValueError("need 0 < epsilon < sigma")
    if not C_decay > 0.0:
        raise ValueError("need C_decay > 0")
    c = c_rightinv_formula(model)
    d = d_proj_formula(model)
    k = k_gamma_formula(model)
    mu_star = 4.0 * k + 1.0
    slopes = deviation_slopes(model)
    delta_mu = {}
    for mu in (2.0, 4.0, mu_star):
        delta_mu[mu] = 0.5 * _admissible_radius(slopes, 1.0 / (mu * c),
                                                2.0 * delta_max)
    delta4 = delta_mu[4.0]
    thresh = delta4 / (4.0 * c)
    # nudge above the equality point so the decay bound holds strictly; a
    # ratio that underflows to 0 is taken as the least positive float
    T0 = max(MIN_GLUING_T, log(max(C_decay / thresh, ulp(0.0))) / epsilon
             * (1.0 + 1e-9))
    return ModelConstants(sigma=sigma, c_rightinv=c, d_proj=d, k_gamma_inv=k,
                          delta_mu=delta_mu, T0=T0, epsilon=epsilon,
                          mu_star=mu_star, C_decay=C_decay)


# ---------------------------------------------------------------------------
# flat `key = value` model config files

def parse_flat_config(text):
    """Flat `key = value` config with # comments; values kept as strings.
    A line without `=` or a repeated key is a ValueError."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("line %d: expected key = value" % lineno)
        key, val = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError("line %d: repeated key %s" % (lineno, key))
        out[key] = val
    return out


def model_from_config(cfg):
    """Build a MorseModel (+ epsilon/delta_max knobs) from a flat config
    dict; an unknown or missing key or a knob out of range is a ValueError."""
    # the first three keys are required
    known = ("dim", "index", "eig", "nonlinearity", "epsilon", "delta_max")
    bad = ["unknown key " + k for k in sorted(set(cfg) - set(known))] + \
        ["missing key " + k for k in known[:3] if k not in cfg]
    if bad:
        raise ValueError(", ".join(bad))
    dim = int(cfg["dim"])
    index = int(cfg["index"])
    eig = tuple(float(v) for v in cfg["eig"].split(","))
    model = MorseModel(dim=dim, index=index, eig=eig,
                       nonlinearity=cfg.get("nonlinearity", ()))
    epsilon = float(cfg["epsilon"]) if "epsilon" in cfg else None
    if epsilon is not None and not 0.0 < epsilon < model.sigma:
        raise ValueError("need 0 < epsilon < sigma = %r" % model.sigma)
    delta_max = float(cfg.get("delta_max", 1.0))
    if not 0.0 < delta_max < np.inf:
        raise ValueError("need 0 < delta_max < inf")
    # compute_constants caps the admissible radius at 2 delta_max
    if not np.isfinite(2.0 * delta_max):
        raise ValueError("need 2 delta_max finite, got delta_max = %r"
                         % delta_max)
    return model, epsilon, delta_max
