"""Tests for the mapping-space charts and transitions."""

import math

import numpy as np
import pytest

from mapcalc import (
    CIRCLE_ATLAS,
    TORUS2_ATLAS,
    MapFormula,
    BaseMismatch,
    BeyondInjectivityRadius,
    ResolutionMismatch,
    WellDefinednessViolated,
    chart_forward,
    chart_inverse,
    default_delta,
    flat_torus,
    map_sup_distance,
    sample_map,
    section_max_diff,
    section_add,
    section_scale,
    section_sup,
    sphere,
    transition,
    transition_derivative,
    zero_section,
)
from mapcalc.atlas import TAU, chart_layout
from mapcalc import manifolds
from mapcalc.charts import (
    apply_fiber_matrices,
    metric_transition,
    metric_transition_batch,
    metric_transition_fiber,
)
from mapcalc.manifolds import (
    exp_points,
    fiber_derivative_points,
    log_points,
    project_tangent,
    reduce_points,
)
from mapcalc.experiments import (
    chain_rule_residuals,
    cocycle_residuals,
    derivative_identity_residuals,
    homeo_rate_ratios,
    metric_independence_residuals,
    random_center,
    random_pair,
    random_section,
    roundtrip_residual,
    transition_differences,
)
from mapcalc.maps import constant_formula, great_circle, torus_loop
from mapcalc.sections import make_section, section_from_formula
from oracles import _tangent_frame, richardson_matrix

T22 = flat_torus(TAU, TAU)
T24 = flat_torus(TAU, 4.0)
S1 = sphere(1.0)
S_CONF = sphere(1.0, conformal="exp(0.3*z)")


def x_rotation(angle):
    """The rotation of R^3 by ``angle`` about the first axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def chart_blocks(f, a):
    """Per-chart blocks of an array with one leading entry per node of a loop."""
    starts = chart_layout(f.atlas, f.resolution).starts
    return [a[i:j] for i, j in zip(starts, starts[1:])]


@pytest.fixture
def shoot_calls(monkeypatch):
    """The node counts of the conformal shooting calls made during a test."""
    calls = []
    shoot = manifolds._shoot_log

    def counted(m, base, target):
        calls.append(len(base))
        return shoot(m, base, target)

    monkeypatch.setattr(manifolds, "_shoot_log", counted)
    return calls


class TestChartForward:
    def test_center_maps_to_zero_section(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        s = chart_forward(f, f, default_delta(f))
        assert section_sup(s) == 0.0

    def test_constant_maps_give_constant_log(self):
        f = sample_map(CIRCLE_ATLAS, S1, constant_formula(S1, [0, 0, 1]), 64)
        g = sample_map(CIRCLE_ATLAS, S1, constant_formula(S1, [math.sin(0.3), 0, math.cos(0.3)]), 64)
        s = chart_forward(f, g, 0.5)
        expected = log_points(
            S1, reduce_points(S1, [0, 0, 1]), reduce_points(S1, [math.sin(0.3), 0, math.cos(0.3)])
        )
        assert np.max(np.abs(s.vectors - expected)) < 1e-12

    def test_far_map_rejected(self):
        f = sample_map(CIRCLE_ATLAS, S1, great_circle(1.0), 64)
        antipodal = sample_map(
            CIRCLE_ATLAS, S1, great_circle(1.0, rotation=x_rotation(math.pi)), 64
        )
        assert map_sup_distance(f, antipodal) == pytest.approx(math.pi, abs=1e-12)
        with pytest.raises(WellDefinednessViolated):
            chart_forward(f, antipodal, math.pi / 2)

    def test_pair_past_the_log_margin_rejected(self):
        # the gap sits inside delta, which sits inside the injectivity
        # radius, but not inside the logarithm's margin below it
        f = sample_map(CIRCLE_ATLAS, S1, great_circle(1.0), 16)
        g = sample_map(
            CIRCLE_ATLAS, S1, great_circle(1.0, rotation=x_rotation(math.pi - 5e-7)), 16
        )
        assert map_sup_distance(f, g) < math.pi - 1e-7
        with pytest.raises(BeyondInjectivityRadius):
            chart_forward(f, g, math.pi - 1e-7)

    @pytest.mark.parametrize("m", [S1, T22, T24, S_CONF], ids=["round", "torus", "torus_2pi_4",
                                                              "conformal"])
    def test_gap_and_vectors_match_separate_calls(self, m, rng):
        f, g, delta = random_pair(m, 16, rng)
        s = chart_forward(f, g, delta)
        assert s.bound == delta
        for fv, gv, vec in zip(f.values, g.values, f.views(s.vectors)):
            assert np.array_equal(vec, log_points(m, fv, gv))
        # the gap is map_sup_distance to the bit: a bound just above it
        # admits g, and a bound equal to it does not
        gap = map_sup_distance(f, g)
        chart_forward(f, g, np.nextafter(gap, np.inf))
        with pytest.raises(WellDefinednessViolated, match="apart"):
            chart_forward(f, g, gap)

    def test_conformal_logarithm_shoots_once_per_map(self, rng, shoot_calls):
        f, g, delta = random_pair(S_CONF, 16, rng)
        shoot_calls.clear()
        chart_forward(f, g, delta)
        assert shoot_calls == [len(f.nodes)]


class TestOneCallPerMap:
    """The pointwise layers make one call over the node array of a map, not
    one per chart, and the per-chart values are views of that array."""

    @staticmethod
    def counted(monkeypatch, module, name):
        calls = []
        fn = getattr(module, name)

        def spy(m, a, b):
            calls.append(a.shape)
            return fn(m, a, b)

        monkeypatch.setattr(module, name, spy)
        return calls

    def test_four_chart_domain(self, monkeypatch):
        from mapcalc import atlas, charts
        from mapcalc.maps import torus2_wave

        f = sample_map(TORUS2_ATLAS, T22, torus2_wave(((1, 0), (0, 1)), amp=0.1), 16)
        assert len(f.values) == 4
        for view in f.values:
            assert np.shares_memory(view, f.nodes)
        s = make_section(f, np.zeros_like(f.nodes) + [0.05, -0.1])
        exps = self.counted(monkeypatch, charts, "exp_points")
        g = chart_inverse(f, s)
        logs = self.counted(monkeypatch, charts, "log_dist_points")
        chart_forward(f, g, default_delta(f))
        dists = self.counted(monkeypatch, atlas, "dist_points")
        map_sup_distance(f, g)
        assert exps == logs == dists == [f.nodes.shape]


class TestChartInverse:
    def test_zero_section_returns_center(self):
        f = sample_map(CIRCLE_ATLAS, S1, great_circle(1.0), 64)
        g = chart_inverse(f, zero_section(f))
        assert map_sup_distance(f, g) == 0.0

    def test_flat_constant_section_translates(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        c = 0.8
        s = make_section(f, np.zeros_like(f.nodes) + [0.0, c])
        g = chart_inverse(f, s)
        expected = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0), shift=(0.0, c)), 64)
        assert map_sup_distance(g, expected) < 1e-12

    def test_base_mismatch_rejected(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        other = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0), shift=(0.3, 0)), 64)
        with pytest.raises(BaseMismatch):
            chart_inverse(other, zero_section(f))

    def test_roundtrip_random_sphere_sections(self, rng):
        f = random_center(S1, 128, rng)
        s = random_section(f, rng, 0.29, bound=0.3)
        g = chart_inverse(f, s)
        s2 = chart_forward(f, g, 0.3)
        assert section_max_diff(s, s2) < 1e-9


class TestRoundTripInvariant:
    @pytest.mark.parametrize("m", [S1, T22])
    def test_both_ways_500_trials_each(self, m, rng):
        worst_map = 0.0
        worst_section = 0.0
        for _ in range(250):
            f, g, delta = random_pair(m, 64, rng)
            worst_map = max(worst_map, roundtrip_residual(f, g, delta, 0))
            s = random_section(f, rng, 0.9 * delta, bound=delta)
            s2 = chart_forward(f, chart_inverse(f, s), delta)
            worst_section = max(worst_section, section_max_diff(s, s2))
        assert worst_map < 1e-9
        assert worst_section < 1e-9


class TestTransition:
    def test_identity_when_centers_equal(self, rng):
        f = random_center(S1, 96, rng)
        s = random_section(f, rng, 0.1, bound=0.15)
        out = transition(f, f, s)
        assert section_max_diff(out, s) < 1e-12

    def test_flat_torus_translation_algebra(self, rng):
        f = random_center(T22, 96, rng)
        delta = default_delta(f)
        g = chart_inverse(f, random_section(f, rng, 0.2 * delta, bound=delta))
        s = random_section(f, rng, 0.2 * delta, bound=0.25 * delta)
        out = transition(f, g, s)
        periods = np.asarray(T22.periods)
        direct = np.mod(f.nodes + s.vectors - g.nodes + periods / 2, periods) - periods / 2
        assert np.max(np.abs(out.vectors - direct)) < 1e-12

    def test_matches_composition_of_charts(self, rng):
        f = random_center(S1, 96, rng)
        delta = default_delta(f)
        g = chart_inverse(f, random_section(f, rng, 0.3 * delta, bound=delta))
        s = random_section(f, rng, 0.2, bound=0.25)
        via = chart_forward(g, chart_inverse(f, s), 0.25 + map_sup_distance(f, g) + 1e-9)
        out = transition(f, g, s)
        assert section_max_diff(via, out) < 1e-12

    def test_conformal_matches_composition_of_charts(self, rng):
        f = random_center(S_CONF, 16, rng)
        delta = default_delta(f)
        g = chart_inverse(f, random_section(f, rng, 0.3 * delta, bound=delta))
        s = random_section(f, rng, 0.2 * delta, bound=0.25 * delta)
        bound = s.bound + map_sup_distance(f, g)
        via = chart_forward(g, chart_inverse(f, s), bound * (1 + 1e-9))
        out = transition(f, g, s)
        assert out.base_map is g
        assert section_max_diff(via, out) < 1e-10

    def test_margin_enforced(self, rng):
        f = random_center(S1, 64, rng)
        g = chart_inverse(f, random_section(f, rng, 0.2, bound=0.3))
        big = random_section(f, rng, 3.0, bound=3.1)
        with pytest.raises(WellDefinednessViolated):
            transition(f, g, big)
        with pytest.raises(WellDefinednessViolated):
            transition_derivative(f, g, big, big)

    def test_base_mismatch_comes_before_the_margin(self, rng):
        f = random_center(S1, 64, rng)
        g = chart_inverse(f, random_section(f, rng, 0.2, bound=0.3))
        # along another map, and far past the margin
        stray = random_section(random_center(S1, 64, rng), rng, 3.0, bound=3.1)
        small = random_section(f, rng, 0.1, bound=0.15)
        with pytest.raises(BaseMismatch):
            transition(f, g, stray)
        with pytest.raises(BaseMismatch):
            transition_derivative(f, g, stray, small)
        with pytest.raises(BaseMismatch):
            transition_derivative(f, g, small, stray)

    def test_cocycle_100_triples(self, rng):
        residuals = cocycle_residuals((S1, T22), 64, rng, 50)
        assert residuals.shape == (50, 2)
        assert np.max(residuals) < 1e-9


class TestTransitionDerivative:
    def test_flat_torus_identity(self, rng):
        f = random_center(T22, 96, rng)
        delta = default_delta(f)
        g = chart_inverse(f, random_section(f, rng, 0.2 * delta, bound=delta))
        s0 = random_section(f, rng, 0.2 * delta, bound=0.25 * delta)
        s = random_section(f, rng, 0.15 * delta, bound=0.2 * delta)
        out = transition_derivative(f, g, s0, s)
        assert section_max_diff(out, make_section(g, s.vectors)) == 0.0

    def test_identity_at_zero_base_section(self, rng):
        f = random_center(S1, 96, rng)
        s = random_section(f, rng, 0.1, bound=0.15)
        out = transition_derivative(f, f, zero_section(f), s)
        assert section_max_diff(out, make_section(f, s.vectors)) < 1e-8

    @pytest.mark.parametrize("m", [S1, T22])
    def test_matches_directional_difference(self, m, rng):
        _, rel = derivative_identity_residuals(m, 96, rng, 10)
        assert rel.shape == (10,)
        assert np.max(rel) < 1e-5

    def test_matches_directional_difference_on_torus2_domain(self):
        # a 2-d domain: chart grids of shape (33, 33, 3) at resolution 32
        def center(mesh):
            a, b = mesh[..., 0], mesh[..., 1]
            raw = np.stack([np.cos(a), np.sin(a), 0.4 * np.sin(b) + 0.2 * np.cos(a + b)], axis=-1)
            return raw / np.linalg.norm(raw, axis=-1, keepdims=True)

        def field(phase):
            def vf(mesh):
                a, b = mesh[..., 0] + phase, mesh[..., 1]
                return np.stack([np.sin(a + b), np.cos(a - 2 * b), np.sin(b) + 0.5], axis=-1)

            return vf

        f = sample_map(TORUS2_ATLAS, S1, MapFormula("torus2_to_sphere", center), 32)
        assert f.values[0].shape == (33, 33, 3)
        delta = default_delta(f)
        g = chart_inverse(f, section_from_formula(f, field(0.0), 0.3 * delta, bound=delta))
        s0 = section_from_formula(f, field(1.0), 0.25 * delta, bound=0.3 * delta)
        s = section_from_formula(f, field(2.0), 0.2 * delta, bound=0.25 * delta)
        ((fd, analytic),) = transition_differences(f, g, s0, [s], S1, S1, 1e-4, step=1e-6)
        assert section_max_diff(fd, analytic) / section_sup(analytic) < 1e-5

    @pytest.mark.parametrize("m", [S1, T22], ids=["sphere", "torus"])
    def test_differences_match_separate_transition_calls(self, m, rng):
        # a node's logarithm does not depend on its batch
        f = random_center(m, 32, rng)
        delta = default_delta(f)
        g = chart_inverse(f, random_section(f, rng, 0.3 * delta, bound=delta))
        s0 = random_section(f, rng, 0.25 * delta, bound=0.3 * delta)
        dirs = [random_section(f, rng, 0.2 * delta, bound=0.25 * delta) for _ in range(2)]
        eps = 1e-4
        built = transition_differences(f, g, s0, dirs, m, m, eps, step=1e-6)
        assert len(built) == len(dirs)
        for s, (fd, analytic) in zip(dirs, built):
            plus = transition(f, g, section_add(s0, section_scale(s, eps)))
            minus = transition(f, g, section_add(s0, section_scale(s, -eps)))
            ref = section_scale(section_add(plus, section_scale(minus, -1.0)), 0.5 / eps)
            alone = transition_derivative(f, g, s0, s)
            assert fd.base_map is analytic.base_map is g
            assert np.array_equal(fd.vectors, ref.vectors)
            assert np.array_equal(analytic.vectors, alone.vectors)

    def test_chain_rule(self, rng):
        residuals = chain_rule_residuals(S1, 64, rng, 5)
        assert residuals.shape == (5,)
        assert np.max(residuals) < 1e-5


def per_chart_fiber_matrices(f, g, s0, step=1e-6):
    """The per-chart loop of fiber derivatives ``transition_derivative`` ran
    before it took its matrices from ``metric_transition_batch``."""
    m = f.target
    return np.concatenate([
        fiber_derivative_points(m, m, fv, gv, v0, step=step).reshape(-1, 2, 2)
        for fv, gv, v0 in zip(f.values, g.values, f.views(s0.vectors))
    ])


class TestOneFiberDerivativeBatch:
    """Chart transitions and changes of metric share one fiber-derivative batch."""

    @staticmethod
    def centers(m, rng, resolution=48):
        f = random_center(m, resolution, rng)
        delta = default_delta(f)
        g = chart_inverse(f, random_section(f, rng, 0.3 * delta, bound=delta))
        s0 = random_section(f, rng, 0.25 * delta, bound=0.3 * delta)
        s = random_section(f, rng, 0.2 * delta, bound=0.25 * delta)
        return f, g, s0, s

    @pytest.mark.parametrize("m", [S1, T22, T24], ids=["sphere", "torus", "torus_unequal"])
    def test_transition_derivative_matches_per_chart_loop(self, m, rng):
        f, g, s0, s = self.centers(m, rng)
        assert map_sup_distance(f, g) > 0.0
        ref = per_chart_fiber_matrices(f, g, s0)
        mats, moved = metric_transition_batch(f, g, s0, [], m, m, step=1e-6)
        assert moved == []
        assert np.array_equal(mats, ref)
        out = transition_derivative(f, g, s0, s)
        assert out.base_map is g
        assert np.array_equal(out.vectors, apply_fiber_matrices(f, g, ref, s).vectors)

    def test_transition_derivative_matches_per_chart_loop_on_torus2_domain(self):
        def center(mesh):
            a, b = mesh[..., 0], mesh[..., 1]
            raw = np.stack([np.cos(a), np.sin(a), 0.4 * np.sin(b) + 0.2 * np.cos(a + b)], axis=-1)
            return raw / np.linalg.norm(raw, axis=-1, keepdims=True)

        f = sample_map(TORUS2_ATLAS, S1, MapFormula("torus2_to_sphere", center), 16)
        delta = default_delta(f)

        def field(phase):
            return lambda mesh: np.sin(mesh + phase)[..., (0, 1, 0)]

        g = chart_inverse(f, section_from_formula(f, field(0.0), 0.3 * delta, bound=delta))
        s0 = section_from_formula(f, field(1.0), 0.25 * delta, bound=0.3 * delta)
        s = section_from_formula(f, field(2.0), 0.2 * delta, bound=0.25 * delta)
        ref = apply_fiber_matrices(f, g, per_chart_fiber_matrices(f, g, s0), s)
        assert np.array_equal(transition_derivative(f, g, s0, s).vectors, ref.vectors)

    def test_sections_move_to_the_destination_center(self, rng):
        f, g, _, s = self.centers(S1, rng)
        _, (moved,) = metric_transition_batch(f, g, None, [s], S1, S1)
        assert moved.base_map is g
        for fv, gv, v, got in zip(f.values, g.values, f.views(s.vectors), g.views(moved.vectors)):
            assert np.array_equal(got, project_tangent(S1, gv, log_points(S1, gv, exp_points(S1, fv, v))))

    def test_s0_along_another_map_is_rejected(self, rng):
        f = random_center(S1, 32, rng)
        other = random_center(S1, 32, rng)
        s0 = random_section(other, rng, 0.12, bound=0.2)
        with pytest.raises(BaseMismatch):
            metric_transition_fiber(f, s0, S1, S1)
        with pytest.raises(BaseMismatch):
            metric_transition_batch(f, f, s0, [], S1, S1)

    def test_s0_at_another_resolution_is_rejected(self, rng):
        f = random_center(S1, 32, rng)
        coarse = random_center(S1, 16, rng)
        s0 = random_section(coarse, rng, 0.12, bound=0.2)
        with pytest.raises(BaseMismatch):
            metric_transition_fiber(f, s0, S1, S1)

    def test_destination_on_another_grid_is_rejected(self, rng):
        f = random_center(S1, 32, rng)
        with pytest.raises(ResolutionMismatch):
            metric_transition_batch(f, random_center(S1, 16, rng), None, [], S1, S1)


class TestHomeoRate:
    def test_linear_rate_both_directions(self, rng):
        f = random_center(S1, 128, rng)
        fwd, inv = homeo_rate_ratios(f, rng, k=2)
        for family in (fwd, inv):
            base = family[0]
            for r in family[1:]:
                assert 0.5 * base <= r <= 2.0 * base


class TestMetricIndependence:
    def test_transition_between_metrics_well_defined(self, rng):
        f = random_center(S1, 64, rng)
        m_conf = sphere(1.0, conformal="exp(0.3*z)")
        s = random_section(f, rng, 0.1, bound=0.15)
        out = metric_transition(f, s, S1, m_conf)
        back = metric_transition(f, out, m_conf, S1)
        assert section_max_diff(back, s) < 1e-9

    def test_stacked_sections_match_one_call_per_section_and_chart(self, rng):
        # the charts' node arrays go through one batch; each chart's nodes
        # keep the bits of a call of their own
        f = random_center(S1, 32, rng)
        m_conf = sphere(1.0, conformal="exp(0.3*z)")
        s0 = random_section(f, rng, 0.12, bound=0.2)
        sections = [random_section(f, rng, 0.1, bound=0.15) for _ in range(3)]
        stacked = metric_transition(f, sections, S1, m_conf)
        assert len(stacked) == len(sections)
        for s, out in zip(sections, stacked):
            single = metric_transition(f, s, S1, m_conf)
            assert out.bound == single.bound
            for fv, v, got, alone in zip(*(f.views(a) for a in (f.nodes, s.vectors, out.vectors,
                                                                 single.vectors))):
                chart = project_tangent(S1, fv, log_points(m_conf, fv, exp_points(S1, fv, v)))
                assert np.array_equal(got, chart)
                assert np.array_equal(alone, chart)
        mats = metric_transition_fiber(f, s0, S1, m_conf)
        for fv, v0, chart_mats in zip(f.values, f.views(s0.vectors), chart_blocks(f, mats)):
            chart = fiber_derivative_points(S1, m_conf, fv, fv, v0, step=1e-4)
            assert np.array_equal(chart_mats, chart)

    def test_batch_matches_separate_fiber_and_transition_calls(self, rng):
        f = random_center(S1, 32, rng)
        s0 = random_section(f, rng, 0.12, bound=0.2)
        sections = [random_section(f, rng, 0.1, bound=0.15) for _ in range(3)]
        mats, moved = metric_transition_batch(f, f, s0, sections, S1, S_CONF, step=1e-4)
        separate = metric_transition_fiber(f, s0, S1, S_CONF, step=1e-4)
        assert np.array_equal(mats, separate)
        alone = fiber_derivative_points(S1, S_CONF, f.nodes, f.nodes, s0.vectors, step=1e-4)
        assert np.array_equal(mats, alone)
        assert len(moved) == len(sections)
        for s, out in zip(sections, moved):
            alone = metric_transition(f, s, S1, S_CONF)
            assert out.bound == alone.bound
            assert np.array_equal(out.vectors, alone.vectors)

    def test_torus_fiber_matrices_are_the_identity(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 16)
        s0 = make_section(f, np.full_like(f.nodes, 0.1))
        mats, moved = metric_transition_batch(f, f, s0, [], T22, T22)
        assert moved == []
        assert np.array_equal(mats, np.broadcast_to(np.eye(2), f.nodes.shape[:-1] + (2, 2)))

    def test_one_conformal_shooting_per_base(self, rng, shoot_calls):
        residuals = metric_independence_residuals(16, rng, n_sections=4, dirs_per_base=2)
        assert len(residuals) == 4
        # two bases; each batch holds 4 fiber probes and 2 x 2 direction
        # probes per node
        assert len(shoot_calls) == 2
        assert shoot_calls[0] == shoot_calls[1] and shoot_calls[0] % 8 == 0

    def test_fiber_matrices_match_richardson_oracle(self, rng):
        f = random_center(S1, 32, rng)
        m_conf = sphere(1.0, conformal="exp(0.3*z)")
        s0 = random_section(f, rng, 0.12, bound=0.2)
        mats = metric_transition_fiber(f, s0, S1, m_conf)
        for fv, v0, chart_mats in zip(f.values, f.views(s0.vectors), chart_blocks(f, mats)):
            for node in (0, len(fv) // 2):
                p = fv[node]
                u1, u2 = _tangent_frame(p)

                def image(w):
                    moved = exp_points(S1, p, w[0] * u1 + w[1] * u2)
                    out = log_points(m_conf, p, moved)
                    return np.array([out @ u1, out @ u2])

                expected = richardson_matrix(image, np.array([v0[node] @ u1, v0[node] @ u2]))
                assert np.max(np.abs(chart_mats[node] - expected)) < 1e-7

    def test_derivative_check_small_sample(self, rng):
        # 4 sections over bases of 3 directions: the last base is cut short
        residuals = metric_independence_residuals(64, rng, n_sections=4, dirs_per_base=3)
        assert len(residuals) == 4
        assert max(residuals) < 1e-4



def random_rotation(rng):
    """A random proper rotation of R^3."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def rotated(f, rot):
    """The map ``rot`` o f, for an isometry ``rot`` of the round sphere."""
    return f.with_nodes(f.nodes @ rot.T)


class TestIsometryEquivariance:
    # a rotation is an isometry of the round sphere, so it commutes with the
    # exponential map and its inverse and hence with both chart maps
    def test_chart_forward_commutes_with_rotation(self, rng):
        f, g, delta = random_pair(S1, 32, rng)
        rot = random_rotation(rng)
        s = chart_forward(f, g, delta)
        s_rot = chart_forward(rotated(f, rot), rotated(g, rot), delta)
        assert np.max(np.abs(s.vectors @ rot.T - s_rot.vectors)) < 1e-12

    def test_chart_inverse_commutes_with_rotation(self, rng):
        f = random_center(S1, 32, rng)
        s = random_section(f, rng, 0.3, bound=0.4)
        rot = random_rotation(rng)
        f_rot = rotated(f, rot)
        s_rot = make_section(f_rot, s.vectors @ rot.T, bound=0.4)
        g_rot = chart_inverse(f_rot, s_rot)
        assert map_sup_distance(rotated(chart_inverse(f, s), rot), g_rot) < 1e-12
