"""Tests for the closed-form geometry of the sphere and flat torus."""

import itertools
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcalc import (
    BeyondInjectivityRadius,
    TargetManifold,
    WellDefinednessViolated,
    flat_torus,
    inj_radius,
    sphere,
)
from mapcalc import manifolds
from mapcalc.manifolds import (
    _FLOW_RULE,
    _JACOBIAN_RULE,
    _MAX_ODE_STEPS,
    SPHERE,
    ConformalFactor,
    _conformal_rhs,
    _geodesic_flow,
    _identity_seeds,
    check_points,
    dist_points,
    dot,
    exp_points,
    fiber_derivative_points,
    frames_at,
    inner_points,
    log_dist_points,
    log_points,
    norm,
    norm_points,
    project_tangent,
    reduce_points,
    require_log_reach,
    smooth_frames,
)

from oracles import (
    broadcast_seed_gradient,
    conformal_path_stationarity,
    conformal_rk4_flow,
    polyline_great_circle_length,
    richardson_matrix,
    rk4_round_geodesic,
    shoot_round_log,
    torus_bruteforce_dist,
)

TAU = 2 * math.pi

S1 = sphere(1.0)
S2 = sphere(2.0)
T22 = flat_torus(TAU, TAU)
T24 = flat_torus(TAU, 4.0)


def point(m, coords):
    """Canonical coordinates of one target point, checked to lie on the target."""
    p = reduce_points(m, np.asarray(coords, dtype=float))
    check_points(m, p)
    return p


def random_sphere_data(m, rng, count, vmax):
    base = rng.standard_normal((count, 3))
    base = base / np.linalg.norm(base, axis=-1, keepdims=True) * m.radius
    vecs = project_tangent(m, base, rng.standard_normal((count, 3)))
    vecs = vecs / norm_points(m, base, vecs)[:, None]
    vecs = vecs * rng.uniform(1e-3, vmax, size=(count, 1))
    return base, vecs


def random_torus_data(m, rng, count, vmax):
    periods = np.asarray(m.periods)
    base = rng.uniform(0, 1, size=(count, len(periods))) * periods
    vecs = rng.standard_normal((count, len(periods)))
    vecs = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)
    vecs = vecs * rng.uniform(1e-3, vmax, size=(count, 1))
    return base, vecs


class TestExp:
    def test_torus_translation_reduces(self):
        p = point(T22, [0.0, 0.0])
        q = exp_points(T22, p, project_tangent(T22, p, [3 * math.pi, 0.0]))
        assert np.allclose(q, [math.pi, 0.0], atol=1e-12)

    def test_sphere_quarter_turn_matches_ode_oracle(self):
        p = point(S1, [0.0, 0.0, 1.0])
        v = project_tangent(S1, p, [math.pi / 2, 0.0, 0.0])
        q = exp_points(S1, p, v)
        oracle = rk4_round_geodesic(p, v, 1.0, step=1e-4)
        assert np.linalg.norm(q - oracle) < 1e-8
        assert np.linalg.norm(q - np.array([1.0, 0.0, 0.0])) < 1e-8

    @pytest.mark.parametrize("m", [S1, S2, T22, T24])
    def test_zero_vector_fixes_base(self, m, rng):
        if m.kind == "sphere":
            base, _ = random_sphere_data(m, rng, 5, 1.0)
        else:
            base, _ = random_torus_data(m, rng, 5, 1.0)
        out = exp_points(m, base, np.zeros_like(base))
        assert np.allclose(out, base, atol=1e-14)


class TestLog:
    def test_log_at_same_point_is_zero(self):
        p = point(S1, [0.0, 1.0, 0.0])
        assert np.allclose(log_points(S1, p, p), 0.0, atol=1e-14)

    def test_sphere_quarter_turn_matches_shooting_oracle(self):
        p = point(S1, [0.0, 0.0, 1.0])
        q = point(S1, [1.0, 0.0, 0.0])
        w = log_points(S1, p, q)
        oracle = shoot_round_log(p, q, 1.0)
        assert np.linalg.norm(w - oracle) < 1e-8
        assert np.allclose(w, [math.pi / 2, 0.0, 0.0], atol=1e-10)

    def test_antipodes_rejected(self):
        p = point(S1, [0.0, 0.0, 1.0])
        q = point(S1, [0.0, 0.0, -1.0])
        with pytest.raises(BeyondInjectivityRadius):
            log_points(S1, p, q)

    def test_torus_cut_locus_rejected(self):
        p = point(T22, [0.0, 0.0])
        q = point(T22, [math.pi, 0.0])
        with pytest.raises(BeyondInjectivityRadius):
            log_points(T22, p, q)


class TestDist:
    def test_zero_on_equal_points(self):
        p = point(T24, [1.0, 2.0])
        assert dist_points(T24, p, p) == 0.0

    def test_sphere_antipode_matches_polyline_oracle(self):
        p = point(S1, [0.0, 0.0, 1.0])
        q = point(S1, [0.0, 0.0, -1.0])
        d = dist_points(S1, p, q)
        oracle = polyline_great_circle_length(p, q, 1.0)
        assert abs(d - math.pi) < 1e-12
        assert abs(d - oracle) < 1e-6

    def test_torus_diagonal_matches_bruteforce(self):
        p = point(T22, [0.0, 0.0])
        q = point(T22, [math.pi, math.pi])
        d = dist_points(T22, p, q)
        assert abs(d - math.pi * math.sqrt(2)) < 1e-12
        assert abs(d - torus_bruteforce_dist(p, q, T22.periods)) < 1e-12

    @pytest.mark.parametrize("m", [S1, T22, T24])
    def test_symmetry_and_triangle(self, m, rng):
        if m.kind == "sphere":
            pts = rng.standard_normal((30, 3))
            pts = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
        else:
            pts = rng.uniform(0, 1, size=(30, len(m.periods))) * np.asarray(m.periods)
        a, b, c = pts[:10], pts[10:20], pts[20:]
        assert np.allclose(dist_points(m, a, b), dist_points(m, b, a), atol=1e-14)
        slack = dist_points(m, a, c) - dist_points(m, a, b) - dist_points(m, b, c)
        assert np.max(slack) < 1e-10

    def test_torus_translation_invariance(self, rng):
        # exact whenever the translation itself is exact in floating point,
        # so use a dyadic period and dyadic points for the bitwise claim
        td = flat_torus(4.0, 8.0)
        a = rng.integers(0, 64, size=(10, 2)) / 16.0
        b = rng.integers(0, 64, size=(10, 2)) / 16.0
        shifted = dist_points(td, a + np.array([4.0, 8.0]), b + np.array([4.0, 8.0]))
        assert np.array_equal(dist_points(td, a, b), shifted)
        # on non-dyadic periods the addition rounds once, nothing more
        a2, _ = random_torus_data(T22, rng, 10, 1.0)
        b2, _ = random_torus_data(T22, rng, 10, 1.0)
        drift = dist_points(T22, a2 + TAU, b2 + TAU) - dist_points(T22, a2, b2)
        assert np.max(np.abs(drift)) < 1e-14


class TestNonFiniteInput:
    """Round-sphere and flat-torus geodesics reject non-finite input by node."""

    @pytest.mark.parametrize("m", [S1, T24], ids=["round", "torus"])
    @pytest.mark.parametrize("fn", [exp_points, log_points, dist_points],
                             ids=["exp", "log", "dist"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("where", ["base", "other"])
    def test_bad_node_is_named(self, m, fn, bad, where):
        good_base = np.array([0.0, 0.0, 1.0]) if m is S1 else np.array([0.5, 1.0])
        good_other = 0.1 * np.ones_like(good_base)
        if fn is not exp_points:
            good_other = exp_points(m, good_base, good_other)
        bases = np.array([good_base] * 3)
        others = np.array([good_other] * 3)
        (bases if where == "base" else others)[1, 0] = bad
        with pytest.raises(WellDefinednessViolated, match=r"node \(1,\)"):
            fn(m, bases, others)

    def test_grid_node_index(self):
        base = np.zeros((4, 5, 2))
        vec = np.full((4, 5, 2), 0.1)
        vec[2, 3, 1] = np.nan
        with pytest.raises(WellDefinednessViolated, match=r"node \(2, 3\)"):
            exp_points(T22, base, vec)


class TestInjRadius:
    @pytest.mark.parametrize(
        "m,expected", [(S1, math.pi), (S2, 2 * math.pi), (T22, math.pi), (T24, 2.0)]
    )
    def test_values(self, m, expected):
        assert inj_radius(m) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("m", [S1, S2, T22])
    def test_probe_roundtrip_inside_fails_outside(self, m, rng):
        inj = inj_radius(m)
        if m.kind == "sphere":
            base, vecs = random_sphere_data(m, rng, 4, 1.0)
        else:
            base, vecs = random_torus_data(m, rng, 4, 1.0)
        unit = vecs / norm_points(m, base, vecs)[:, None]
        inside = unit * (inj - 1e-3)
        got = log_points(m, base, exp_points(m, base, inside))
        assert np.max(np.linalg.norm(got - inside, axis=-1)) < 1e-9
        # past the radius the round trip breaks: either the logarithm refuses
        # or it returns the shorter representative
        outside = unit * (inj + 1e-3)
        for b, v in zip(base, outside):
            end = exp_points(m, b[None], v[None])
            try:
                back = log_points(m, b[None], end)
            except BeyondInjectivityRadius:
                continue
            assert np.linalg.norm(back[0] - v) > 1e-3


class TestMetricInner:
    def test_zero_vector(self):
        p = point(S1, [0.0, 0.0, 1.0])
        z = project_tangent(S1, p, [0.0, 0.0, 0.0])
        assert inner_points(S1, p, z, z) == 0.0

    def test_round_restriction(self):
        p = point(S1, [0.0, 0.0, 1.0])
        v = project_tangent(S1, p, [1.0, 0.0, 0.0])
        assert inner_points(S1, p, v, v) == pytest.approx(1.0, abs=1e-15)

    def test_constant_conformal_factor_scales(self):
        m = sphere(1.0, conformal=f"{math.e**2} + 0*x")
        p = point(m, [0.0, 0.0, 1.0])
        v = project_tangent(m, p, [1.0, 0.0, 0.0])
        assert inner_points(m, p, v, v) == pytest.approx(math.e**2, rel=1e-12)


class TestRoundTripInvariants:
    @pytest.mark.parametrize("m", [S1, S2, T22, T24])
    def test_log_exp_roundtrip_1000(self, m, rng):
        inj = inj_radius(m)
        if m.kind == "sphere":
            base, vecs = random_sphere_data(m, rng, 1000, 0.9 * inj)
        else:
            base, vecs = random_torus_data(m, rng, 1000, 0.9 * inj)
        back = log_points(m, base, exp_points(m, base, vecs))
        assert np.max(np.linalg.norm(back - vecs, axis=-1)) < 1e-9

    @pytest.mark.parametrize("m", [S1, T22])
    def test_geodesic_speed(self, m, rng):
        if m.kind == "sphere":
            base, vecs = random_sphere_data(m, rng, 50, 1.0)
        else:
            base, vecs = random_torus_data(m, rng, 50, 1.0)
        speeds = norm_points(m, base, vecs)
        for t in (0.1, 0.5, 0.9 * inj_radius(m) / float(np.max(speeds))):
            d = dist_points(m, base, exp_points(m, base, t * vecs))
            assert np.max(np.abs(d - t * speeds)) < 1e-9


class TestFiberTransitionDerivative:
    def test_flat_torus_identity_exact(self, rng):
        base, vecs = random_torus_data(T22, rng, 3, 0.5)
        mats = fiber_derivative_points(T22, T22, base, base + 0.3, vecs)
        assert np.array_equal(mats, np.broadcast_to(np.eye(2), mats.shape))

    def test_same_point_zero_vector_identity(self):
        p = point(S1, [0.0, 0.0, 1.0])
        z = project_tangent(S1, p, [0.0, 0.0, 0.0])
        mat = fiber_derivative_points(S1, S1, p, p, z)
        assert np.max(np.abs(mat - np.eye(2))) < 1e-8

    def test_sphere_matches_richardson_oracle(self):
        p_src = point(S1, [0.0, 0.0, 1.0])
        p_dst = point(S1, [math.sin(0.1), 0.0, math.cos(0.1)])
        z = project_tangent(S1, p_src, [0.0, 0.0, 0.0])
        mat = fiber_derivative_points(S1, S1, p_src, p_dst, z)

        sframes = frames_at(S1, p_src)
        dframes = frames_at(S1, p_dst)

        def image_coords(wc):
            v = wc[0] * sframes[0] + wc[1] * sframes[1]
            out = log_points(S1, p_dst, exp_points(S1, p_src, v))
            return np.array([np.dot(out, dframes[0]), np.dot(out, dframes[1])])

        oracle = richardson_matrix(image_coords, np.zeros(2))
        assert np.max(np.abs(mat - oracle)) < 1e-6

    def test_beyond_reach_rejected(self):
        p = point(S1, [0.0, 0.0, 1.0])
        q = point(S1, [0.0, 0.0, -1.0])
        z = project_tangent(S1, p, [0.0, 0.0, 0.0])
        with pytest.raises(BeyondInjectivityRadius):
            fiber_derivative_points(S1, S1, p, q, z)


# expressions covering every rule of the conformal grammar's dual numbers
GRADIENT_EXPRS = [
    "2 + sin(x) * cos(y) - tan(0.5 * z)",
    "exp(0.3 * z) + log(3 + y) + sqrt(2 + x * z)",
    "abs(x - 0.1) + 1",
    "7 + (-x) + (+y) * 2 - 3 / (2 + z)",
    "pi + (2 + x)**3 + (1.5 + y)**-0.5",
    "(2 + x)**(1 + 0.5 * y)",
    "1 + x**(2 + 0*y)",
    "2**z",
    "2.5 + 0*x",
    "2.5",
]
GRADIENT_IDS = ["trig", "exp_log_sqrt", "abs", "arithmetic_unary", "constant_exponent",
                "variable_exponent", "variable_exponent_negative_base", "reflected_power",
                "constant", "no_coordinates"]


class TestConformalMetric:
    def test_constant_factor_matches_round_geodesics(self, rng):
        m = sphere(1.0, conformal="2.5 + 0*x")
        base, vecs = random_sphere_data(S1, rng, 40, 1.5)
        ends_conf = exp_points(m, base, vecs)
        ends_round = exp_points(S1, base, vecs)
        assert np.max(np.linalg.norm(ends_conf - ends_round, axis=-1)) < 1e-10

    def test_factor_rescaling_leaves_geodesics(self, rng):
        a = sphere(1.0, conformal="exp(0.3*z)")
        b = sphere(1.0, conformal="2.0*exp(0.3*z)")
        base, vecs = random_sphere_data(S1, rng, 20, 1.0)
        assert np.max(np.abs(exp_points(a, base, vecs) - exp_points(b, base, vecs))) < 1e-11

    def test_roundtrip(self, rng):
        m = sphere(1.0, conformal="exp(0.3*z)")
        base, vecs = random_sphere_data(S1, rng, 200, 0.9 * inj_radius(m))
        back = log_points(m, base, exp_points(m, base, vecs))
        assert np.max(np.linalg.norm(back - vecs, axis=-1)) < 1e-9

    def test_path_is_stationary_for_weighted_energy(self):
        # first variation of the weighted path energy vanishes along the flow,
        # and the discrete residual decays under refinement (a wrong flow
        # would leave an O(1) residual)
        m = sphere(1.0, conformal="exp(0.3*z)")
        p = np.array([math.sin(0.7), 0.0, math.cos(0.7)])
        v = project_tangent(m, p, np.array([0.3, 0.8, 0.1]))

        def path(n):
            ts = np.linspace(0, 1, n + 1)
            return np.stack([exp_points(m, p, t * v) for t in ts])

        phi = m.conformal
        coarse = conformal_path_stationarity(path(60), phi)
        fine = conformal_path_stationarity(path(120), phi)
        assert fine < 1e-6
        assert 3.0 < coarse / fine < 20.0

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        short=st.lists(st.floats(1e-3, 0.4), min_size=1, max_size=2),
        long=st.lists(st.floats(0.4, 1.3), min_size=1, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_nodes_are_batch_invariant(self, short, long, seed):
        # the per-node RK4 step count grows with |v| from |v| = 0.0466, where
        # it leaves its floor of 8, and the short and long speeds meet at 0.4
        # (118 steps), so every batch mixes step counts; each node must come
        # out bit-identical alone and inside the batch
        m = sphere(1.0, conformal="exp(0.3*z)")
        rng = np.random.default_rng(seed)
        speeds = rng.permutation(short + long)[:, None]
        base, vecs = random_sphere_data(S1, rng, len(speeds), 1.0)
        vecs = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True) * speeds
        ends = exp_points(m, base, vecs)
        # log targets at metric distance up to 0.6 (Euclidean |v| up to 0.7),
        # inside the injectivity radius and past the step boundary; longer
        # shots only add Newton iterations
        reach = np.minimum(speeds, 0.6) / norm_points(m, base, vecs)[:, None]
        targets = exp_points(m, base, vecs * reach)
        logs = log_points(m, base, targets)
        for i in range(len(speeds)):
            assert np.array_equal(exp_points(m, base[i], vecs[i]), ends[i])
            assert np.array_equal(log_points(m, base[i], targets[i]), logs[i])

    def test_flow_matches_c_ordered_oracle(self, rng):
        # speeds from 0.05 to 1.1 take 9 to 417 steps in one batch; the
        # component-major kernel must give the oracle's bits whatever the
        # layout of its input, and hand back a C-ordered array
        m = sphere(1.0, conformal="exp(0.3*z)")
        base, vecs = random_sphere_data(S1, rng, 12, 1.0)
        vecs = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)
        vecs = vecs * np.linspace(0.05, 1.1, 12)[:, None]
        ref = conformal_rk4_flow(m, base, vecs)
        wide = np.zeros((2, 24, 3))
        wide[:, ::2] = base, vecs
        layouts = {
            "C": (base, vecs),
            "F": (np.asfortranarray(base), np.asfortranarray(vecs)),
            "strided": (wide[0, ::2], wide[1, ::2]),
            "grid": (base.reshape(3, 4, 3), vecs.reshape(3, 4, 3)),
        }
        for name, (b, v) in layouts.items():
            ends = exp_points(m, b, v)
            assert ends.flags.c_contiguous, name
            assert np.array_equal(ends, ref.reshape(b.shape)), name

    @pytest.mark.parametrize(
        "fn, base, other",
        [
            (exp_points, [0.0, 0.0, 1.0], [np.inf, 0.0, 0.0]),
            (exp_points, [0.0, 0.0, 1.0], [np.nan, 0.0, 0.0]),
            (exp_points, [np.nan, 0.0, 1.0], [0.1, 0.0, 0.0]),
            (log_points, [0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]),
            (dist_points, [0.0, 0.0, 1.0], [np.nan, 0.0, 1.0]),
        ],
        ids=["exp_inf_vector", "exp_nan_vector", "exp_nan_base", "log_nan_target",
             "dist_nan_target"],
    )
    def test_non_finite_input_raises_typed_error(self, fn, base, other):
        # the bad node sits between two good ones, and the error names it
        m = sphere(1.0, conformal="exp(0.3*z)")
        good_base, good_other = [0.0, 0.0, 1.0], [0.1, 0.0, 0.0]
        if fn is not exp_points:
            good_other = exp_points(m, np.array(good_base), np.array(good_other))
        bases = np.array([good_base, base, good_base])
        others = np.array([good_other, other, good_other])
        with pytest.raises(WellDefinednessViolated, match=r"node \(1,\)"):
            fn(m, bases, others)

    def test_huge_speed_raises_at_once(self):
        # 370 |v|^(5/4) RK4 steps would take weeks; the cap stops the flow before any
        m = sphere(1.0, conformal="exp(0.3*z)")
        bases = np.array([[0.0, 0.0, 1.0]] * 3)
        vecs = np.array([[0.1, 0.0, 0.0], [1e6, 0.0, 0.0], [0.0, 0.1, 0.0]])
        with pytest.raises(WellDefinednessViolated, match=r"node \(1,\).*RK4 steps"):
            exp_points(m, bases, vecs)

    def test_step_cap_sits_far_above_chart_speeds(self):
        # chart and probe vectors stay inside the injectivity radius, and the
        # step count depends on the speed only through |v| / R
        _, scale = _FLOW_RULE
        for radius in (0.1, 1.0, 1e4):
            m = sphere(radius, conformal=f"exp({0.3 / radius!r}*z)")
            assert _MAX_ODE_STEPS > 100 * scale * (inj_radius(m) / radius) ** 1.25

    def test_large_radius_flows_at_chart_speed(self):
        # a step rule in |v| alone, 160 |v| steps, gives |v| = 0.2 R on a
        # sphere of radius 1e4 320,000 RK4 steps, over the cap; the rule in
        # |v| / R gives it the 50 steps of |v| = 0.2 on the unit sphere
        radius = 1e4
        m = sphere(radius, conformal="exp(3e-05*z)")
        base, vec = np.array([0.0, 0.0, radius]), np.array([0.2 * radius, 0.0, 0.0])
        end = exp_points(m, base, vec)
        unit = exp_points(sphere(1.0, conformal="exp(0.3*z)"), base / radius, vec / radius)
        assert np.max(np.abs(end / radius - unit)) < 1e-14
        assert np.max(np.abs(log_points(m, base, end) - vec)) < 1e-14 * radius

    @pytest.mark.parametrize("radius", [0.1, 1.0, 1000.0])
    def test_flow_rule_meets_its_error_budget(self, radius, rng):
        # the end-point error relative to R, against a 4,096-step flow, stays
        # at or below 2e-12 (the old 64-step floor's error at |v| = 0.3) at
        # speeds from 1e-3 R to 1.3 R; with exp((0.3 / R) z) it is scale-free
        m = sphere(radius, conformal=f"exp({0.3 / radius!r}*z)")
        speeds = np.repeat([1e-3, 0.01, 0.05, 0.1, 0.3, 0.7, 1.0, 1.3], 25)[:, None]
        base, vecs = random_sphere_data(sphere(radius), rng, len(speeds), 1.0)
        vecs = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True) * speeds * radius
        ref = _geodesic_flow(m, base, vecs, (4096, 0.0))
        ends = _geodesic_flow(m, base, vecs)
        assert np.max(np.abs(ends - ref)) <= 2e-12 * radius

    @pytest.mark.parametrize("expr", GRADIENT_EXPRS, ids=GRADIENT_IDS)
    def test_gradient_matches_broadcast_seeds(self, expr, rng):
        phi = sphere(1.0, conformal=expr).conformal
        pts = rng.standard_normal((200, 3))
        pts = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
        value, grad = phi.value_and_gradient(pts)
        ref_value, ref_grad = broadcast_seed_gradient(phi, pts)
        assert np.array_equal(value, ref_value)
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("expr", GRADIENT_EXPRS, ids=GRADIENT_IDS)
    def test_gradient_matches_central_difference(self, expr, rng):
        phi = sphere(1.0, conformal=expr).conformal
        pts = rng.standard_normal((400, 3))
        pts = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
        # keep the abs kink outside the difference stencil
        pts = pts[np.abs(pts[:, 0] - 0.1) > 1e-3][:200]
        shift = 1e-6 * np.eye(3)  # row a displaces the point along axis a
        probes = pts[:, None, :]
        central = (phi(probes + shift) - phi(probes - shift)) / 2e-6
        value, grad = phi.value_and_gradient(pts)
        assert len(pts) == 200
        assert np.array_equal(value, phi(pts))
        assert np.max(np.abs(grad - central)) < 1e-7

    def test_dist_uses_weighted_norm(self):
        m = sphere(1.0, conformal="exp(0.3*z)")
        p = np.array([0.0, 0.0, 1.0])
        v = np.array([0.4, 0.0, 0.0])
        d = dist_points(m, p[None], exp_points(m, p[None], v[None]))[0]
        assert d == pytest.approx(math.sqrt(math.exp(0.3)) * 0.4, rel=1e-9)


def northern_data(rng, count):
    """Bases within 0.6 rad of the north pole with speeds 0.05 to 0.5.

    Flows under ``z`` stay where z > 0.3, and the speeds take 9 to 156 RK4
    steps, so a batch mixes step counts.
    """
    polar = rng.uniform(0.0, 0.6, count)
    azimuth = rng.uniform(0.0, TAU, count)
    base = np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
                     np.cos(polar)], axis=-1)
    vecs = project_tangent(S1, base, rng.standard_normal((count, 3)))
    vecs = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)
    return base, vecs * rng.uniform(0.05, 0.5, (count, 1))


class TestConformalKernel:
    """The right-hand side writes only its own arrays, and shared seeds stay
    the identity whatever flows ran before."""

    # z and +z hand back the seeds themselves as the gradient
    FACTORS = ["exp(0.3*z)", "z", "+z", "2.5"]

    @staticmethod
    def target(expr):
        # z is not positive on the whole sphere, so no TargetManifold accepts
        # it; the flow reads only the kind, the radius and the factor
        return types.SimpleNamespace(kind=SPHERE, radius=1.0, conformal=ConformalFactor(expr))

    @pytest.mark.parametrize("expr", FACTORS)
    def test_rhs_only_reads_its_state(self, expr, rng):
        m = self.target(expr)
        base, vecs = northern_data(rng, 6)
        pos, vel = np.asfortranarray(base), np.asfortranarray(vecs)
        acc = _conformal_rhs(m, pos, vel)
        assert np.array_equal(pos, base) and np.array_equal(vel, vecs)
        assert not np.shares_memory(acc, pos) and not np.shares_memory(acc, vel)
        assert np.array_equal(_conformal_rhs(m, pos, vel), acc)
        _, grad = m.conformal.value_and_gradient(pos)
        seeded = np.shares_memory(grad, _identity_seeds(pos.shape))
        assert seeded == (expr in ("z", "+z"))
        assert not (seeded and grad.flags.writeable)

    @pytest.mark.parametrize("expr", FACTORS)
    def test_flows_of_changing_sizes_match_oracle(self, expr, rng):
        # sizes 3, 5 and 3 back to back reuse the seeds built for size 3
        m = self.target(expr)
        for count in (3, 5, 3):
            base, vecs = northern_data(rng, count)
            ends = _geodesic_flow(m, base, vecs)
            assert np.array_equal(ends, conformal_rk4_flow(m, base, vecs))

    def test_seeds_are_a_read_only_identity(self):
        seeds = _identity_seeds((5, 3))
        assert seeds is _identity_seeds((5, 3))
        assert not seeds.flags.writeable and seeds.flags.f_contiguous
        assert np.array_equal(seeds, np.broadcast_to(np.eye(3), (5, 3, 3)))


def spy_flows(monkeypatch):
    """The node count and step rule of every conformal RK4 flow run."""
    flows = []
    flow = manifolds._geodesic_flow

    def spy(m, base, vec, rule=_FLOW_RULE):
        flows.append((math.prod(np.broadcast_shapes(np.shape(base), np.shape(vec))[:-1]), rule))
        return flow(m, base, vec, rule)

    monkeypatch.setattr(manifolds, "_geodesic_flow", spy)
    return flows


class TestConformalShooting:
    """Each distinct (base, target) pair is shot once, and the chord
    Jacobian's coarse probe flows leave the Newton schedule as it was."""

    M = sphere(1.0, conformal="exp(0.3*z)")

    # nodes per flow of a 200-node logarithm: the residual, the Jacobian's
    # four probes per node, then one residual per chord-Newton step over the
    # nodes still moving.  Step counts from the error budget left the schedule
    # of the 64-step floor as it was up to |v| = 0.7; at 1.0 and 1.1 one node
    # stops an iteration sooner
    SCHEDULE = {
        0.05: [200, 800, 200, 194],
        0.3: [200, 800, 200, 200, 195, 23],
        0.7: [200, 800, 200, 200, 200, 198, 137, 3],
        1.0: [200, 800, 200, 200, 200, 199, 196, 159, 69],
        1.1: [200, 800, 200, 200, 200, 199, 198, 178, 118, 30],
    }

    @staticmethod
    def shots(speed, count, seed=7):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((count, 3))
        base /= np.linalg.norm(base, axis=-1, keepdims=True)
        vecs = project_tangent(S1, base, rng.standard_normal((count, 3)))
        return base, vecs / np.linalg.norm(vecs, axis=-1, keepdims=True) * speed

    @pytest.mark.parametrize("speed", sorted(SCHEDULE))
    def test_newton_schedule_is_unchanged(self, speed, monkeypatch):
        base, vecs = self.shots(speed, 200)
        targets = exp_points(self.M, base, vecs)
        flows = spy_flows(monkeypatch)
        logs = log_points(self.M, base, targets)
        assert [n for n, _ in flows] == self.SCHEDULE[speed]
        # only the Jacobian's probes (the second flow) take the coarse rule
        assert [rule for _, rule in flows] == [
            _JACOBIAN_RULE if i == 1 else _FLOW_RULE for i in range(len(flows))
        ]
        assert np.max(np.abs(logs - vecs)) < 2e-11

    def test_coarse_rule_flow_matches_c_ordered_oracle(self, rng):
        # the coarse rule runs the same kernel at max(4, ceil(46.25 |v|^(5/4)))
        # steps, an eighth of the full rule's
        assert _JACOBIAN_RULE == (4, 46.25) and _FLOW_RULE == (8, 370.0)
        base, vecs = random_sphere_data(S1, rng, 12, 1.0)
        vecs = vecs * np.linspace(0.05, 1.1, 12)[:, None] / norm(vecs)[:, None]
        ends = _geodesic_flow(self.M, base, vecs, _JACOBIAN_RULE)
        assert np.array_equal(ends, conformal_rk4_flow(self.M, base, vecs, *_JACOBIAN_RULE))

    def test_repeated_pairs_are_shot_once(self, monkeypatch):
        base, vecs = self.shots(0.5, 5)
        targets = exp_points(self.M, base, vecs)
        rows = np.array([3, 0, 3, 1, 4, 4, 2, 0, 3, 1, 2, 4])
        alone = [log_points(self.M, base[i], targets[i]) for i in range(5)]
        flows = spy_flows(monkeypatch)
        distinct = log_points(self.M, base, targets)
        distinct_flows = list(flows)
        flows.clear()
        logs = log_points(self.M, base[rows].reshape(3, 4, 3), targets[rows].reshape(3, 4, 3))
        # the flows of the repeated batch are those of its 5 distinct pairs
        assert flows == distinct_flows and flows[0][0] == 5
        assert logs.shape == (3, 4, 3) and logs.flags.c_contiguous
        for i, got in zip(rows, logs.reshape(-1, 3)):
            assert np.array_equal(got, alone[i]) and np.array_equal(got, distinct[i])

    def test_signed_zeros_are_distinct_pairs(self, monkeypatch):
        base = np.array([[0.0, 0.0, 1.0], [-0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        target = exp_points(self.M, base[0], np.array([0.3, 0.2, 0.0]))
        targets = np.array([target] * 3)
        alone = [log_points(self.M, b, t) for b, t in zip(base, targets)]
        flows = spy_flows(monkeypatch)
        logs = log_points(self.M, base, targets)
        # rows 0 and 2 repeat each other; row 1 differs only in the sign of a zero
        assert flows[0][0] == 2
        for got, ref in zip(logs, alone):
            assert np.array_equal(got, ref)

    def test_empty_batch(self):
        assert log_points(self.M, np.empty((0, 3)), np.empty((0, 3))).shape == (0, 3)

    def failure(self, base, targets):
        with pytest.raises(BeyondInjectivityRadius) as err:
            log_points(self.M, base, targets)
        return str(err.value)

    def test_non_convergence_names_the_worst_node(self, monkeypatch):
        # after two chord-Newton steps no node has converged; the error names
        # the node with the largest residual, as each node reports it alone
        monkeypatch.setattr(manifolds, "_SHOOT_MAX_ITER", 2)
        base, vecs = self.shots(1.0, 4)
        vecs = vecs * np.array([0.3, 0.6, 0.4, 0.5])[:, None]
        targets = exp_points(self.M, base, vecs)
        alone = [self.failure(base[i:i + 1], targets[i:i + 1]) for i in range(4)]
        residuals = [re.search(r"node \(0,\): residual (\S+) after 2 ", a)[1] for a in alone]
        worst = int(np.argmax([float(r) for r in residuals]))
        assert residuals.count(residuals[worst]) == 1 and float(residuals[worst]) > 1e-11
        message = self.failure(base.reshape(2, 2, 3), targets.reshape(2, 2, 3))
        assert f"at node {(worst // 2, worst % 2)}: residual {residuals[worst]} " in message

    def test_last_allowed_iteration_may_converge(self, monkeypatch):
        base, vecs = self.shots(0.3, 6)
        targets = exp_points(self.M, base, vecs)
        flows = spy_flows(monkeypatch)
        logs = log_points(self.M, base, targets)
        # the first residual and one Jacobian's probes, then a residual per step
        steps = len(flows) - 2
        assert 1 < steps <= manifolds._JACOBIAN_REFRESH
        monkeypatch.setattr(manifolds, "_SHOOT_MAX_ITER", steps)
        assert np.array_equal(log_points(self.M, base, targets), logs)

    def test_singular_jacobian_names_the_worst_node(self, monkeypatch):
        # shrunk by 1e-8, every 2x2 Jacobian's determinant falls below 1e-14;
        # the error names the first row of the pair with the smallest one
        frame_quotient = manifolds.frame_quotient
        monkeypatch.setattr(manifolds, "frame_quotient", lambda *a: 1e-8 * frame_quotient(*a))
        base, vecs = self.shots(1.0, 4)
        vecs = vecs * np.array([0.1, 0.5, 0.3, 0.2])[:, None]
        targets = exp_points(self.M, base, vecs)
        alone = [self.failure(base[i:i + 1], targets[i:i + 1]) for i in range(4)]
        dets = [re.search(r"node \(0,\): Jacobian determinant of magnitude (\S+),", a)[1]
                for a in alone]
        worst = int(np.argmin([float(d) for d in dets]))
        assert dets.count(dets[worst]) == 1
        rows = np.array([1, 3, 0, 2, 1, 3])
        message = self.failure(base[rows].reshape(2, 3, 3), targets[rows].reshape(2, 3, 3))
        first = int(np.flatnonzero(rows == worst)[0])
        node = (first // 3, first % 3)
        assert f"at node {node}: Jacobian determinant of magnitude {dets[worst]}," in message


class TestOneLogarithm:
    """``log_points`` and ``dist_points`` are the two halves of
    ``log_dist_points``, with no geometry of their own."""

    CONF = sphere(1.0, conformal="exp(0.3*z)")
    TARGETS = [S1, S2, T22, T24, CONF]
    IDS = ["round", "round_r2", "torus", "torus_unequal", "conformal"]

    @classmethod
    def pairs(cls, m, rng, count):
        if m.kind == "torus":
            base, vecs = random_torus_data(m, rng, count, 2.0)
        else:
            base, vecs = random_sphere_data(m, rng, count, 0.6 if m is cls.CONF else 2.5)
        return base, exp_points(m, base, vecs)

    @pytest.mark.parametrize("m", TARGETS, ids=IDS)
    def test_log_and_dist_are_the_halves(self, m, rng):
        base, target = self.pairs(m, rng, 6 if m is self.CONF else 40)
        vecs, d = log_dist_points(m, base, target)
        _assert_same_bits(log_points(m, base, target), vecs)
        _assert_same_bits(dist_points(m, base, target), d)
        # on a grid, and with one base broadcast against every target
        grid = base.reshape(2, -1, base.shape[-1]), target.reshape(2, -1, base.shape[-1])
        _assert_same_bits(log_points(m, *grid), vecs.reshape(grid[0].shape))
        _assert_same_bits(dist_points(m, *grid), d.reshape(grid[0].shape[:-1]))
        _assert_same_bits(dist_points(m, base[0], target), log_dist_points(m, base[0], target)[1])

    @pytest.mark.parametrize(
        "m, far", [(S1, [0.0, 0.0, -1.0]), (S2, [0.0, 0.0, -2.0]), (T22, [math.pi, 0.0])],
        ids=["round", "round_r2", "torus"],
    )
    def test_round_and_flat_cut_locus(self, m, far):
        base = np.array([[0.0, 0.0, m.radius]] * 2 if m.kind == "sphere" else [[0.0, 0.0]] * 2)
        near = exp_points(m, base[0], 0.1 * np.eye(base.shape[-1])[0])
        target = np.array([near, far])
        vecs, d = log_dist_points(m, base, target)
        with pytest.raises(BeyondInjectivityRadius) as from_log:
            log_points(m, base, target)
        with pytest.raises(BeyondInjectivityRadius) as from_reach:
            require_log_reach(m, d)
        assert str(from_log.value) == str(from_reach.value)
        # the distance has no reach limit: the cut locus is at the injectivity radius
        _assert_same_bits(dist_points(m, base, target), d)
        assert d[1] == inj_radius(m)

    def test_nan_distance_is_beyond_reach(self, monkeypatch):
        with pytest.raises(BeyondInjectivityRadius, match="nan"):
            require_log_reach(S1, np.array([np.nan]))
        base = np.array([[0.0, 0.0, 1.0]])
        vecs, _ = log_dist_points(S1, base, base)
        nan_distance = np.array([np.nan])
        monkeypatch.setattr(manifolds, "log_dist_points", lambda m, b, t: (vecs, nan_distance))
        with pytest.raises(BeyondInjectivityRadius, match="nan"):
            log_points(S1, base, base)

    def test_conformal_cut_locus(self):
        base = np.array([[0.0, 0.0, 1.0]] * 2)
        target = np.array([[0.1, 0.0, math.sqrt(0.99)], [0.0, 0.0, -1.0]])
        errors = []
        for fn in (log_points, dist_points, log_dist_points):
            with pytest.raises(BeyondInjectivityRadius) as err:
                fn(self.CONF, base, target)
            errors.append(str(err.value))
        assert errors[0] == errors[1] == errors[2]

    @pytest.mark.parametrize("m", TARGETS, ids=IDS)
    def test_non_finite_node_is_named(self, m, rng):
        base, target = self.pairs(m, rng, 4)
        target[2, -1] = np.nan
        messages = []
        for fn in (log_points, dist_points, log_dist_points):
            with pytest.raises(WellDefinednessViolated, match=r"node \(2,\)") as err:
                fn(m, base, target)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == messages[2]


class TestOneRK4Loop:
    """The flow sorts its nodes once by step count, slowest first, and
    advances the prefix of the nodes still flowing."""

    M = sphere(1.0, conformal="exp(0.3*z)")

    @staticmethod
    def shuffled(rng):
        # |v| = 0.03 and 0.04 both sit at the floor of 8 steps (4 coarse),
        # 0.503 takes 157 (20) and 0.9 takes 325 (41); every count is tied,
        # and the order is shuffled
        speeds = rng.permutation(np.repeat([0.03, 0.04, 0.503, 0.9], 3))
        base, vecs = random_sphere_data(S1, rng, len(speeds), 1.0)
        return base, vecs / np.linalg.norm(vecs, axis=-1, keepdims=True) * speeds[:, None]

    @pytest.mark.parametrize("rule", [_FLOW_RULE, _JACOBIAN_RULE], ids=["full", "coarse"])
    def test_shuffled_tied_speeds_match_oracle(self, rule, rng, monkeypatch):
        base, vecs = self.shuffled(rng)
        floor, scale = rule
        steps = np.maximum(floor, np.ceil(scale * np.linalg.norm(vecs, axis=-1) ** 1.25))
        assert len(np.unique(steps)) < len(steps)
        widths = []
        step = manifolds._rk4_step

        def spy(m, pos, vel, *rest):
            widths.append(len(pos))
            return step(m, pos, vel, *rest)

        monkeypatch.setattr(manifolds, "_rk4_step", spy)
        ends = _geodesic_flow(self.M, base, vecs, rule)
        assert ends.flags.c_contiguous
        assert np.array_equal(ends, conformal_rk4_flow(self.M, base, vecs, floor, scale))
        # step k advances the nodes that take more than k steps, once each
        assert widths == [int(np.sum(steps > k)) for k in range(int(steps.max()))]

    def test_empty_batch(self):
        for rule in (_FLOW_RULE, _JACOBIAN_RULE):
            ends = _geodesic_flow(self.M, np.empty((0, 3)), np.empty((0, 3)), rule)
            assert ends.shape == (0, 3)


class TestFramesAndSerialization:
    def test_pointwise_frames_orthonormal(self, rng):
        base, _ = random_sphere_data(S1, rng, 100, 1.0)
        frames = frames_at(S1, base)
        gram = np.einsum("nad,nbd->nab", frames, frames)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    def test_smooth_frames_continuous_along_loop(self):
        thetas = np.linspace(0, TAU, 400)
        loop = np.stack([np.cos(thetas), np.sin(thetas), np.zeros_like(thetas)], axis=-1)
        frames = smooth_frames(S1, loop, (slice(None),))
        jumps = np.linalg.norm(np.diff(frames, axis=0), axis=(-2, -1))
        assert np.max(jumps) < 0.1

    def test_manifold_json_roundtrip(self):
        for m in (S2, T24, sphere(1.0, conformal="exp(0.3*z)")):
            again = TargetManifold.from_json(m.to_json())
            assert again.kind == m.kind
            assert again.to_json() == m.to_json()

    def test_invalid_manifolds_rejected(self):
        with pytest.raises(ValueError):
            sphere(-1.0)
        with pytest.raises(ValueError):
            flat_torus(2.0, -1.0)
        with pytest.raises(ValueError):
            TargetManifold("torus", periods=(2.0,), conformal=sphere(1.0, "1+0*x").conformal)

    def test_nonpositive_conformal_factor_rejected(self):
        with pytest.raises(ValueError):
            sphere(1.0, conformal="z")

    @pytest.mark.parametrize("expr", ["1e308*1e308", "exp(1000*z)", "1 + 0*x + 1e308*1e308*0"],
                             ids=["infinite_constant", "overflow_at_a_probe", "nan_constant"])
    def test_non_finite_conformal_factor_rejected(self, expr):
        # inj_radius would read NaN from such a factor
        with pytest.raises(ValueError, match="finite and strictly positive"):
            sphere(1.0, conformal=expr)

    @pytest.mark.parametrize(
        "expr",
        [
            "1 + 0*x + 0*(().__class__.__base__ is None)",
            "1 + x.real",
            "1 + 0*x[0]",
            "(lambda: 2)()",
            "'2'",
            "True",
            # in the grammar, but its constants cannot be evaluated
            "1 + 0*x + 0*9**9**9",
            "1 + 0*x + 1/0",
            "1 + 0*x + (-1)**0.5",
        ],
        ids=["attribute_chain", "attribute", "subscript", "lambda", "string", "bool",
             "overflowing_constant", "zero_division_constant", "complex_constant"],
    )
    def test_conformal_expression_outside_grammar_rejected(self, expr):
        with pytest.raises(ValueError):
            sphere(1.0, conformal=expr)


_SPECIAL = (-0.0, 0.0, 1.0, -1.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan, 3.5)


def _assert_same_bits(got, ref):
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], ref[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(ref[~nan]))


class TestPointwiseDot:
    """``dot``/``norm`` keep the bits of numpy's reductions over the last axis."""

    @pytest.mark.parametrize("ncomp", [2, 3])
    def test_special_values(self, ncomp):
        a = np.array(list(itertools.product(_SPECIAL, repeat=ncomp)))
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            for b in (np.ones_like(a), a, a[::-1]):
                _assert_same_bits(dot(a, b), np.sum(a * b, axis=-1))
            _assert_same_bits(norm(a), np.linalg.norm(a, axis=-1))

    def test_random_sphere_grid(self, rng):
        a = rng.standard_normal((64, 65, 3))
        b = rng.standard_normal((64, 65, 3))
        assert np.array_equal(dot(a, b), np.sum(a * b, axis=-1))
        assert np.array_equal(norm(a), np.linalg.norm(a, axis=-1))

    def test_random_torus_array(self, rng):
        a = rng.uniform(-TAU, TAU, (257, 2))
        b = rng.uniform(-TAU, TAU, (257, 2))
        assert np.array_equal(dot(a, b), np.sum(a * b, axis=-1))
        assert np.array_equal(norm(a), np.linalg.norm(a, axis=-1))
