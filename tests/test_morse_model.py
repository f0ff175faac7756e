import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from mglue import morse_model
from mglue.morse_model import (ROUNDING, TENSOR_ORDER, MorseModel,
                               compute_constants, c_rightinv_formula,
                               d_proj_formula, deviation_slopes,
                               k_gamma_formula, model_c1, model_e1,
                               model_from_config, parse_flat_config,
                               polynomial_terms)

LAM = 0.1


class TestModelInvariants:
    def test_e1_gradient(self, e1):
        assert np.allclose(e1.grad([1.0, 1.0]), [1.0, -1.0])

    def test_gradient_vanishes_at_origin(self, e1, c1):
        for m in (e1, c1):
            assert np.allclose(m.grad(np.zeros(m.dim)), 0.0, atol=1e-14)

    def test_c1_gradient_hand_value(self, c1):
        assert np.allclose(c1.grad([1.0, 1.0]), [1.2, -0.9])

    def test_hessian_at_origin_is_diagonal(self, e1, c1):
        for m in (e1, c1):
            assert np.allclose(m.dgrad_tensor(np.zeros(m.dim), 1),
                               np.diag(m.a), atol=1e-14)

    def test_c1_jacobian_hand_value(self, c1):
        x, y = 0.7, -0.4
        expect = np.array([[1 + 2 * LAM * y, 2 * LAM * x],
                           [2 * LAM * x, -1.0]])
        assert np.allclose(c1.dgrad_tensor([x, y], 1), expect, atol=1e-12)

    def test_jacobian_vs_finite_differences(self, c1):
        rng = np.random.default_rng(0)
        eps = 1e-6
        for _ in range(10):
            z = rng.uniform(-1, 1, size=2)
            J = c1.dgrad_tensor(z, 1)
            fd = np.empty((2, 2))
            for j in range(2):
                e = np.zeros(2)
                e[j] = eps
                fd[:, j] = (c1.grad(z + e) - c1.grad(z - e)) / (2 * eps)
            assert np.max(np.abs(J - fd)) / max(np.max(np.abs(J)), 1) <= 1e-6

    def test_order2_tensor_symmetry(self, c1):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.uniform(-1, 1, size=2)
            t = c1.dgrad_tensor(z, 2)
            assert np.max(np.abs(t - np.swapaxes(t, 1, 2))) <= 1e-12

    def test_bad_eig_order_rejected(self):
        with pytest.raises(ValueError):
            MorseModel(dim=2, index=1, eig=(-1.0, 1.0))

    def test_nonmatching_hessian_rejected(self):
        # nonlinearity with nonvanishing 2-jet contradicts the eig list
        with pytest.raises(ValueError):
            MorseModel(dim=2, index=1, eig=(1.0, -1.0),
                       nonlinearity="x1*x2")


class TestConstants:
    def test_e1_closed_forms(self, ce):
        assert ce.c_rightinv == pytest.approx(np.sqrt(5.0), abs=1e-12)
        assert ce.d_proj == pytest.approx(2 * np.sqrt(2.0), abs=1e-12)
        assert ce.k_gamma_inv == pytest.approx(1 / (1 - np.exp(-12.0)),
                                               abs=1e-12)
        assert ce.sigma == 1.0

    def test_e1_delta_capped(self, ce):
        # linear model: deviation vanishes, so delta is the configured cap
        assert ce.delta_mu[2.0] == pytest.approx(1.0)
        assert ce.delta4 == pytest.approx(1.0)

    def test_delta_monotone_in_mu(self, cc):
        mus = sorted(cc.delta_mu)
        vals = [cc.delta_mu[m] for m in mus]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_c1_delta4_vs_hand_bound(self, c1, cc):
        # the deviation 2*lam*[[y,x],[x,0]] has norm at most 4*lam/sqrt(3) r
        # on |z| <= r, with equality at y^2 = r^2/3, so rho_4 is the closed
        # form 1/(4 c s_3) with s_3 just above 4*lam/sqrt(3)
        c = cc.c_rightinv
        rho4 = 2 * cc.delta_mu[4.0]
        assert rho4 == pytest.approx(1.0 / (4 * c * deviation_slopes(c1)[3]),
                                     rel=1e-15)
        hand = 1.0 / (4 * c * 4 * LAM / np.sqrt(3))
        assert hand * (1 - 2e-3) <= rho4 <= hand

    def test_t0_bound(self, cc):
        # C * exp(-eps*T0) < delta4 / (4c)
        assert 1.0 * np.exp(-cc.epsilon * cc.T0) < cc.delta4 / (
            4 * cc.c_rightinv)
        assert cc.T0 >= 3.0

    @pytest.mark.parametrize("name", ["e1", "c1", "3d"])
    def test_t0_one_rule_keeps_bits(self, request, name):
        # the former two branches: T0 = 3 for C below thresh e^{-3 eps},
        # else the nudged log, floored at 3; over C on both sides of that
        # switch and of thresh e^{+3 eps}, where the bound starts to bite
        model = model_3d() if name == "3d" else request.getfixturevalue(name)
        cc = compute_constants(model)
        thresh = cc.delta4 / (4.0 * cc.c_rightinv)
        eps = cc.epsilon

        def two_branches(C):
            if C < thresh * math.exp(-eps * 3.0):
                return 3.0
            return max(3.0, math.log(C / thresh) / eps * (1.0 + 1e-9))

        edges = [thresh * math.exp(-eps * 3.0), thresh,
                 thresh * math.exp(eps * 3.0)]
        Cs = [5e-324, 1e-300, 1e-9, 0.5, 1.0, 3.476, 1e9, 1e300]
        Cs += [np.nextafter(e, d) for e in edges for d in (0.0, np.inf)]
        Cs += edges
        for C in Cs:
            T0 = compute_constants(model, C_decay=float(C)).T0
            assert T0.hex() == float(two_branches(float(C))).hex(), C

    def test_t0_where_c_over_thresh_underflows(self, e1):
        # a linear model's thresh grows with delta_max: 5e-324 / thresh is 0
        cc = compute_constants(e1, C_decay=5e-324, delta_max=1e300)
        assert 5e-324 / (cc.delta4 / (4.0 * cc.c_rightinv)) == 0.0
        assert cc.T0 == 3.0

    @pytest.mark.parametrize("C", [0.0, -1.0, np.nan])
    def test_c_decay_not_positive_rejected(self, c1, C):
        with pytest.raises(ValueError, match="C_decay > 0"):
            compute_constants(c1, C_decay=C)

    def test_epsilon_in_range(self, cc):
        assert 0 < cc.epsilon < cc.sigma

    def test_deviation_inside_ball(self, c1, cc):
        # paths staying in the 2*delta_mu ball keep the linearization within
        # 1/(mu c) of the asymptotic Hessian
        rng = np.random.default_rng(3)
        c = cc.c_rightinv
        for mu, delta in cc.delta_mu.items():
            r = 2 * delta * (1 - 0.1)
            for _ in range(100):
                z = rng.uniform(-1, 1, 2)
                z *= r * rng.uniform() / np.linalg.norm(z)
                dev = c1.dgrad_tensor(z, 1) - np.diag(c1.a)
                assert np.linalg.norm(dev, 2) <= 1.0 / (mu * c) + 1e-12


class TestFormulas:
    def test_block_formula_general(self):
        m = MorseModel(dim=4, index=2, eig=(3.0, 1.0, -0.5, -2.0))
        # per block: extreme magnitudes in the numerator, smallest block
        # magnitude in the denominator (the slow direction controls)
        c_plus = np.sqrt(((3.0 + 1.0) ** 2 + 1) / 1.0**2)
        c_minus = np.sqrt(((0.5 + 2.0) ** 2 + 1) / 0.5**2)
        assert c_rightinv_formula(m) == pytest.approx(max(c_plus, c_minus))
        assert d_proj_formula(m) == pytest.approx(
            np.sqrt(8 * max(1 + 9.0, 1 + 4.0) / (2 * 0.5)))
        assert k_gamma_formula(m) == pytest.approx(1 / (1 - np.exp(-6.0)))


class TestConfig:
    def test_flat_parse(self):
        cfg = parse_flat_config("a = 1\n# comment\nb= x^2 \n\n")
        assert cfg == {"a": "1", "b": "x^2"}

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="^line 3: repeated key a$"):
            parse_flat_config("a = 1\n# a = 0\na = 2\n")

    def test_model_roundtrip(self, c1):
        cfg = parse_flat_config(
            "dim = 2\nindex = 1\neig = 1,-1\nnonlinearity = 0.1*x1^2*x2\n")
        m, eps, delta_max = model_from_config(cfg)
        z = np.array([0.3, -0.2])
        assert np.allclose(m.grad(z), c1.grad(z), atol=1e-14)
        assert eps is None and delta_max == 1.0

    @pytest.mark.parametrize("value", ["1e308", "8.99e307"])
    def test_delta_max_whose_double_overflows_rejected(self, value):
        # compute_constants caps the radius at 2 delta_max, which would be
        # inf and reach the reports as Infinity
        cfg = parse_flat_config("dim = 2\nindex = 1\neig = 1,-1\n"
                                "delta_max = %s\n" % value)
        with pytest.raises(ValueError, match="need 2 delta_max finite"):
            model_from_config(cfg)

    def test_largest_delta_max_kept(self):
        # the largest double whose double is finite
        top = float(np.finfo(float).max) / 2
        cfg = parse_flat_config("dim = 2\nindex = 1\neig = 1,-1\n"
                                "delta_max = %r\n" % top)
        assert model_from_config(cfg)[2] == top


C1_TEXT = "0.1*x1^2*x2"
TEXT_3D = "0.1*x1^2*x2 + 0.05*x1*x2*x3 - 0.07*x3^3"
TEXT_MIXED = "0.1*x1^2*x2 + 0.3*x1^4 - 0.2*x2^4"
# a quartic model whose unstable half from seed 2 lies outside the
# neighbourhood in which the shooting Newton iteration contracts
TEXT_QUARTIC = "0.3*x1^2*x2^2 + 0.2*x1^3*x2 + 0.1*x2^4"


# A cubic 3-D model: its Hessian entries are linear in z, so the derivative
# tensors involve no powers, while grad carries the squares.
def model_3d():
    return MorseModel(dim=3, index=1, eig=(2.0, 1.0, -1.5),
                      nonlinearity=TEXT_3D)


# Two degrees, so the admissible radius is the root of a quadratic in rho
# rather than a closed form.
def model_mixed():
    return MorseModel(dim=2, index=1, eig=(1.0, -1.0),
                      nonlinearity=TEXT_MIXED)


TEXTS = {model_e1: "0", model_c1: C1_TEXT, model_3d: TEXT_3D,
         model_mixed: TEXT_MIXED}


def lambdify_reference(dim, text, order):
    """The former evaluation, as a batched function of z: every entry of the
    order-`order` derivative of grad f_nl lambdified by sympy and called on
    the coordinate arrays of z (order 0 is grad f_nl)."""
    xs = sp.symbols("x1:%d" % (dim + 1))
    expr = sp.sympify(text, locals={s.name: s for s in xs}, convert_xor=True)
    entries = [sp.diff(expr, x) for x in xs]
    for _ in range(order):
        entries = [sp.diff(e, x) for e in entries for x in xs]
    fns = [sp.lambdify(xs, e, modules="numpy") for e in entries]
    shape = (dim,) * (order + 1)

    def fn(z):
        cols = z.reshape(-1, dim).T
        vals = np.empty((cols.shape[1], len(fns)))
        for i, f in enumerate(fns):
            vals[:, i] = f(*cols)
        return vals.reshape(z.shape[:-1] + shape)

    return fn


# Entries that sum several monomials add them in another order than sympy's
# printer, and sympy prints derived coefficients to 15 digits, so on models
# other than e1 and c1 the reference is matched within a few units of
# float64 roundoff
GRAD_TOL = 4 * np.finfo(float).eps


@pytest.mark.parametrize("make",
                         [model_e1, model_c1, model_3d, model_mixed])
class TestBatchedEvaluation:
    def points(self, model):
        return np.random.default_rng(5).uniform(-1.0, 1.0, (200, model.dim))

    def assert_matches_reference(self, make, got, ref):
        if make in (model_e1, model_c1):
            assert np.array_equal(got, ref)
        else:
            np.testing.assert_allclose(got, ref, rtol=GRAD_TOL,
                                       atol=GRAD_TOL)

    def test_grad_matches_per_point_loop(self, make):
        model = make()
        Z = self.points(model)
        nonlinear = lambdify_reference(model.dim, TEXTS[make], 0)
        self.assert_matches_reference(make, model.grad(Z),
                                      model.a * Z + nonlinear(Z))
        # one point alone gives the same bits as inside the batch
        assert np.array_equal(np.stack([model.grad(z) for z in Z]),
                              model.grad(Z))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_dgrad_tensor_equals_per_point_loop(self, make, order):
        model = make()
        Z = self.points(model)
        lin = model.A if order == 1 else 0.0
        tensor = lambdify_reference(model.dim, TEXTS[make], order)
        self.assert_matches_reference(make, model.dgrad_tensor(Z, order),
                                      lin + tensor(Z))
        assert np.array_equal(
            np.stack([model.dgrad_tensor(z, order) for z in Z]),
            model.dgrad_tensor(Z, order))

    def test_batch_shapes(self, make):
        model = make()
        n = model.dim
        Z = self.points(model)[:12].reshape(3, 4, n)
        assert model.grad(Z[0, 0]).shape == (n,)
        assert model.grad(Z).shape == (3, 4, n)
        for order in (1, 2, 3):
            assert model.dgrad_tensor(Z[0, 0], order).shape == \
                (n,) * (order + 1)
            assert model.dgrad_tensor(Z, order).shape == \
                (3, 4) + (n,) * (order + 1)
            assert np.array_equal(model.dgrad_tensor(Z, order)[1, 2],
                                  model.dgrad_tensor(Z[1, 2], order))


def model_quartic():
    return MorseModel(dim=2, index=1, eig=(1.0, -1.0),
                      nonlinearity=TEXT_QUARTIC)


# The closed-form root of one degree may put phi a few units of roundoff
# above its target; the factor 1 + ROUNDING in each slope covers that.
ROOT_ROUNDING = 4 * np.finfo(float).eps


def phi(slopes, rho):
    """The certified deviation bound sum_k s_k rho^(k-2) at radius rho."""
    return sum(s * rho ** (k - 2) for k, s in slopes.items())


def ball_points(dim, rho, count, rng):
    """count points drawn uniformly from the ball |z| <= rho."""
    z = rng.standard_normal((count, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z * rho * rng.uniform(size=(count, 1)) ** (1.0 / dim)


class TestCertifiedSlopes:
    def test_c1_slope_between_sup_and_net_bound(self, c1):
        # the sup over unit z of ||dgrad(z) - A|| is 0.4/sqrt(3) exactly;
        # the net adds at most ||T_3||_F r, the rounding allowance ROUNDING
        exact = 0.4 / np.sqrt(3.0)
        frob = morse_model._frobenius_slope(c1.nonlinearity)
        r = morse_model._sphere_net(2)[1]
        s3 = deviation_slopes(c1)[3]
        assert exact <= s3
        assert s3 <= (exact + frob * r + ROUNDING * frob) * (1 + ROUNDING)
        assert s3 < frob  # the net wins over the Frobenius slope

    @pytest.mark.parametrize("make", [model_c1, model_3d])
    def test_frobenius_closed_form(self, make):
        # cubic models: F_3 = ||T_3||_F/1!
        model = make()
        frob = morse_model._frobenius_slope(model.nonlinearity)
        assert frob == pytest.approx(
            np.linalg.norm(model.nonlinear_tensor(np.zeros(model.dim), 2)),
            rel=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_net_covers_the_sphere_up_to_sign(self, dim):
        net, r = morse_model._sphere_net(dim)
        assert np.allclose(np.linalg.norm(net, axis=1), 1.0)
        u = np.random.default_rng(dim).standard_normal((2000, dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        near = np.abs(u @ net.T).max(axis=1)  # cosine to the nearest +-net
        assert np.sqrt(np.maximum(2.0 - 2.0 * near, 0.0)).max() <= r

    def test_linear_model_has_no_slopes(self, e1):
        assert deviation_slopes(e1) == {}

    @pytest.mark.parametrize("make", [model_e1, model_c1, model_3d,
                                      model_mixed, model_quartic])
    def test_sampled_never_exceeds_certified(self, make):
        model = make()
        cs = compute_constants(model)
        slopes = deviation_slopes(model)
        rng = np.random.default_rng(7)
        for mu, delta in cs.delta_mu.items():
            rho = 2.0 * delta
            assert phi(slopes, rho) <= (1.0 + ROOT_ROUNDING) / (
                mu * cs.c_rightinv)
            z = ball_points(model.dim, rho, 10**5, rng)
            dev = np.abs(np.linalg.eigvalsh(model.nonlinear_tensor(z, 1)))
            assert dev.max() <= phi(slopes, rho)

    @pytest.mark.parametrize("make", [model_c1, model_mixed, model_quartic])
    def test_radius_is_the_largest_root(self, make):
        # rho_mu is the largest rho with phi(rho) <= 1/(mu c), to float
        # resolution
        model = make()
        cs = compute_constants(model)
        slopes = deviation_slopes(model)
        for mu, delta in cs.delta_mu.items():
            target = 1.0 / (mu * cs.c_rightinv)
            rho = 2.0 * delta
            assert phi(slopes, rho) <= target * (1.0 + ROOT_ROUNDING)
            assert phi(slopes, rho * (1 + 1e-14)) > target

    @pytest.mark.parametrize("make", [model_e1, model_c1, model_3d,
                                      model_mixed, model_quartic])
    def test_constants_do_not_depend_on_rng(self, make):
        model = make()
        ref = compute_constants(model, rng=None)
        for seed in range(5):
            assert compute_constants(
                model, rng=np.random.default_rng(seed)) == ref

    def test_high_degree_slope_is_finite(self):
        # 171! and 170! overflow a float, F_171 = 170 sqrt(171) does not
        model = MorseModel(dim=2, index=1, eig=(1.0, -1.0),
                           nonlinearity="x1^170*x2")
        frob = morse_model._frobenius_slope(model.nonlinearity)
        assert frob == pytest.approx(170.0 * np.sqrt(171.0), rel=1e-15)
        cs = compute_constants(model)
        slopes = deviation_slopes(model)
        assert 0.0 < slopes[171] <= frob * (1 + ROUNDING)
        # at a cap of 2000, s_171 rho^169 overflows a float before the root
        assert compute_constants(model, delta_max=1e3).delta_mu == cs.delta_mu
        z = ball_points(2, 2.0 * cs.delta_mu[2.0], 10**4,
                        np.random.default_rng(3))
        dev = np.abs(np.linalg.eigvalsh(model.nonlinear_tensor(z, 1)))
        assert dev.max() <= phi(slopes, 2.0 * cs.delta_mu[2.0])

    def test_overflowing_bound_raises(self):
        huge = MorseModel(dim=2, index=1, eig=(1.0, -1.0),
                          nonlinearity="1e200*x1^2*x2")
        with pytest.raises(ValueError, match="no positive admissible radius"):
            compute_constants(huge)


class TestTermRepresentation:
    def test_builtins_give_their_terms(self):
        assert model_e1().nonlinearity == ()
        assert model_c1().nonlinearity == (((2, 1), 0.1),)

    @pytest.mark.parametrize("make", [model_e1, model_c1, model_3d,
                                      model_mixed])
    def test_text_equals_terms(self, make):
        model = make()
        terms = polynomial_terms(TEXTS[make], model.dim)
        assert MorseModel(dim=model.dim, index=model.index, eig=model.eig,
                          nonlinearity=TEXTS[make]) == model
        assert MorseModel(dim=model.dim, index=model.index, eig=model.eig,
                          nonlinearity=terms) == model

    def test_3d_terms_by_hand(self):
        terms = (((0, 0, 3), -0.07), ((2, 1, 0), 0.1), ((1, 1, 1), 0.05))
        assert MorseModel(dim=3, index=1, eig=(2.0, 1.0, -1.5),
                          nonlinearity=terms) == model_3d()

    def test_zero_polynomial_has_no_terms(self):
        m = MorseModel(dim=2, index=1, eig=(1.0, -1.0),
                       nonlinearity="x1^3 - x1^3")
        assert m.nonlinearity == () and m == model_e1()

    @pytest.mark.parametrize("nonlinearity", ["x1*x2", "x1", "x1 +* x2",
                                              "sin(x1)", "y^3"])
    def test_invalid_nonlinearity_raises_every_time(self, nonlinearity):
        # every construction runs the checks of the model
        for _ in range(3):
            with pytest.raises(ValueError):
                MorseModel(dim=2, index=1, eig=(1.0, -1.0),
                           nonlinearity=nonlinearity)

    @pytest.mark.parametrize("terms", [
        (((3,), 1.0),),                     # exponent tuple of the wrong length
        (((3, 0), 1.0), ((3, 0), 2.0)),     # repeated monomial
        (((3, -1), 1.0),),                  # negative exponent
    ])
    def test_bad_terms_rejected(self, terms):
        with pytest.raises(ValueError):
            MorseModel(dim=2, index=1, eig=(1.0, -1.0), nonlinearity=terms)

    @pytest.mark.parametrize("c", [np.inf, -np.inf, np.nan])
    def test_non_finite_coefficient_rejected(self, c):
        # named before any linear algebra runs on the model
        with pytest.raises(ValueError, match="coefficients must be finite, "
                           "got %r for exponents \\(3, 0\\)" % c):
            MorseModel(dim=2, index=1, eig=(1.0, -1.0),
                       nonlinearity=(((3, 0), c), ((1, 2), 0.5)))

    def test_fractional_exponent_rejected(self):
        with pytest.raises(TypeError):
            MorseModel(dim=2, index=1, eig=(1.0, -1.0),
                       nonlinearity=(((2.5, 1), 1.0),))

    def test_degree_five_term_reaches_order_three(self):
        m = MorseModel(dim=2, index=1, eig=(1.0, -1.0),
                       nonlinearity="x1^5 + 0.5*x1^3*x2^2")
        z = np.array([0.5, -0.25])
        t3 = m.dgrad_tensor(z, TENSOR_ORDER)
        # d^4 (x1^5) / dx1^4 = 120 x1, d^4 (x1^3 x2^2) / dx1^2 dx2^2 = 12 x1
        assert t3[0, 0, 0, 0] == 120.0 * 0.5
        assert t3[0, 0, 1, 1] == t3[1, 1, 0, 0] == 0.5 * 12.0 * 0.5
        ref = lambdify_reference(2, "x1^5 + 0.5*x1^3*x2^2", TENSOR_ORDER)
        np.testing.assert_allclose(t3, ref(z), rtol=GRAD_TOL, atol=GRAD_TOL)

    def test_diagonal_n12_model_builds(self):
        eig = tuple(float(k * k) for k in range(11, 0, -1)) + (-1.0,)
        m = MorseModel(dim=12, index=1, eig=eig)
        z = np.linspace(-1.0, 1.0, 12)
        assert np.array_equal(m.grad(z), m.a * z)
        assert np.array_equal(m.dgrad_tensor(z, 1), m.A)
        assert not np.any(m.dgrad_tensor(z, 3))
        assert m.dgrad_tensor(z, 3).shape == (12,) * 4


# The terms of every model text in the tests and CI, and of one text whose
# float products would miss the exactly rounded x1^3 coefficient -2/3 by an
# ulp, recorded as float .hex().
RECORDED_TERMS = {
    (C1_TEXT, 2): (((2, 1), "0x1.999999999999ap-4"),),
    (TEXT_3D, 3): (((2, 1, 0), "0x1.999999999999ap-4"),
                   ((1, 1, 1), "0x1.999999999999ap-5"),
                   ((0, 0, 3), "-0x1.1eb851eb851ecp-4")),
    (TEXT_MIXED, 2): (((4, 0), "0x1.3333333333333p-2"),
                      ((2, 1), "0x1.999999999999ap-4"),
                      ((0, 4), "-0x1.999999999999ap-3")),
    (TEXT_QUARTIC, 2): (((3, 1), "0x1.999999999999ap-3"),
                        ((2, 2), "0x1.3333333333333p-2"),
                        ((0, 4), "0x1.999999999999ap-4")),
    ("x1^170*x2", 2): (((170, 1), "0x1.0000000000000p+0"),),
    ("1e200*x1^2*x2", 2): (((2, 1), "0x1.4e718d7d7625ap+664"),),
    ("x1^5 + 0.5*x1^3*x2^2", 2): (((5, 0), "0x1.0000000000000p+0"),
                                  ((3, 2), "0x1.0000000000000p-1")),
    ("x1^3 - x1^3", 2): (),
    ("0", 2): (),
    ("x1**3/3 - (x1+x2)^3", 2): (((3, 0), "-0x1.5555555555555p-1"),
                                 ((2, 1), "-0x1.8000000000000p+1"),
                                 ((1, 2), "-0x1.8000000000000p+1"),
                                 ((0, 3), "-0x1.0000000000000p+0")),
}


def hex_terms(terms):
    return tuple((e, c.hex()) for e, c in terms)


class TestPolynomialReader:
    @pytest.mark.parametrize("text,dim", list(RECORDED_TERMS))
    def test_recorded_terms(self, text, dim):
        assert hex_terms(polynomial_terms(text, dim)) == \
            RECORDED_TERMS[text, dim]

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
        st.floats(allow_nan=False, allow_infinity=False).filter(bool),
        min_size=1, max_size=8))
    def test_repr_round_trip(self, terms):
        text = " + ".join("%r*x1^%d*x2**%d*x3^%d" % ((c,) + e)
                          for e, c in terms.items())
        assert hex_terms(polynomial_terms(text, 3)) == \
            hex_terms(sorted(terms.items(), reverse=True))

    @pytest.mark.parametrize("first,second", [
        ("0.1*0.3*x1^3", "x1^3*0.3*0.1"),
        ("0.1*x1^3 + 0.2*x1^3 + 0.3*x1^3", "0.3*x1^3 + 0.2*x1^3 + 0.1*x1^3"),
    ])
    def test_coefficients_do_not_depend_on_order(self, first, second):
        assert hex_terms(polynomial_terms(first, 2)) == \
            hex_terms(polynomial_terms(second, 2))

    @pytest.mark.parametrize("text", [
        "", "x1 +* x2", "sin(x1)", "y^3", "x3", "x0", "x01", "x1^2.5",
        "x1^-1", "x1/x2", "2x1", "pi*x1^3", "E*x1^3", "sqrt(2)*x1^3",
        "x1^2^3", "x1^(1+2)", "x1^3/0", "(x1^3", "x1^3)", "x1^3 x2",
        pytest.param("(" * 5000 + "x1^3" + ")" * 5000, id="nested_5000"),
    ])
    def test_text_outside_the_grammar_raises(self, text):
        with pytest.raises(ValueError) as exc:
            polynomial_terms(text, 2)
        assert str(exc.value) == \
            "nonlinearity %r is not a polynomial in x1..x2" % text

    @pytest.mark.parametrize("text", ["1e400*x1^3", "-10^400*x1^3",
                                      "1e400*x1^3 - 1e400*x1^3"])
    def test_coefficient_beyond_double_range_is_not_finite(self, text):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            MorseModel(dim=2, index=1, eig=(1.0, -1.0), nonlinearity=text)

    def test_power_of_a_monomial_is_one_term(self):
        assert polynomial_terms("(2*x1^3*x2)^40", 2) == \
            (((120, 40), 2.0 ** 40),)
