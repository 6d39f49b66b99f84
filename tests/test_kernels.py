"""Bit equality of the fast periodic, cross-product and harmonic kernels
with the numpy functions they replace."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapcalc
from mapcalc import maps, target_charts
from mapcalc.atlas import CIRCLE_ATLAS, chart_layout
from mapcalc.cli import ExperimentConfig, run_suite
from mapcalc.manifolds import cross, dist_points, flat_torus, log_points, mod_periods
from mapcalc.maps import add_fourier_modes, harmonic_tables, loop_draws, random_loop, stack_draws
from mapcalc.target_charts import auto_chart, lift_grid, unwrap

from oracles import _fourier_sum, cap_chart_rep, full_unwrap, unwrap_lift

TAU = 2 * math.pi


def assert_same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], ref[~nan])
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(ref[~nan]))


def special_values(period):
    """The edge cases of a periodic reduction by ``period``."""
    return np.array([
        -0.0, 0.0, period, np.nextafter(period, 0.0), -1e-300, 1e-300, -period,
        2 * period, np.nextafter(-period, 0.0), 0.5 * period, -0.5 * period,
        np.inf, -np.inf, np.nan, 1e300, -1e300,
    ])


class TestModPeriods:
    @pytest.mark.parametrize("period", [TAU, 4.0, 1.0, 3e-7])
    def test_special_values_1d(self, period):
        x = special_values(period)
        with np.errstate(invalid="ignore"):
            assert_same_bits(mod_periods(x, period), np.mod(x, period))
            assert_same_bits(mod_periods(x, (period,)), np.mod(x, period))

    def test_tiny_negative_reduces_to_the_period(self):
        # -1e-300 + period rounds to the period, so np.mod returns it
        assert np.mod(-1e-300, TAU) == TAU
        assert mod_periods(np.array([-1e-300]), TAU)[0] == TAU
        assert not np.signbit(mod_periods(np.array([-0.0]), TAU)[0])

    @pytest.mark.parametrize("periods", [(TAU, TAU), (TAU, 4.0), (1.0, 3e-7)])
    def test_special_values_per_axis(self, periods):
        cols = [special_values(p) for p in periods]
        # every pairing of the two axes' special values
        x = np.stack(np.meshgrid(*cols, indexing="ij"), axis=-1)
        with np.errstate(invalid="ignore"):
            for arr in (x.reshape(-1, 2), x):
                assert_same_bits(mod_periods(arr, periods), np.mod(arr, np.asarray(periods)))
                assert_same_bits(
                    mod_periods(arr, np.asarray(periods)), np.mod(arr, np.asarray(periods))
                )

    def test_single_point_and_scalar(self):
        assert_same_bits(mod_periods(np.array([-0.5, 7.0]), (TAU, 4.0)),
                         np.mod(np.array([-0.5, 7.0]), np.array([TAU, 4.0])))
        assert_same_bits(mod_periods(-0.5, TAU), np.mod(-0.5, TAU))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=2, max_size=40),
        st.sampled_from([(TAU, TAU), (TAU, 4.0), (0.1, 1e3)]),
    )
    def test_random_floats(self, values, periods):
        x = np.array(values[: len(values) // 2 * 2]).reshape(-1, 2)
        with np.errstate(invalid="ignore"):
            assert_same_bits(mod_periods(x, periods), np.mod(x, np.asarray(periods)))


def broadcast_wrap(delta, periods):
    """The torus wrap with the period vector broadcast over the nodes."""
    half = np.asarray(periods) / 2.0
    return np.mod(delta + half, np.asarray(periods)) - half


class TestTorusWrap:
    """Per-entry half periods keep the bits of the broadcast wrap."""

    @pytest.mark.parametrize("periods", [(TAU, 4.0), (TAU, TAU)])
    def test_dist_points_on_special_differences(self, periods, rng):
        m = flat_torus(*periods)
        cols = [special_values(p)[np.isfinite(special_values(p))] for p in periods]
        delta = np.stack(np.meshgrid(*cols, indexing="ij"), axis=-1).reshape(-1, 2)
        base = rng.uniform(0.0, 1.0, delta.shape) * np.asarray(periods)
        for a, b in ((base, base + delta), (np.zeros_like(delta), delta)):
            assert_same_bits(dist_points(m, a, b),
                             np.linalg.norm(broadcast_wrap(b - a, periods), axis=-1))

    @pytest.mark.parametrize("periods", [(TAU, 4.0), (TAU, TAU)])
    def test_log_points_inside_the_reach(self, periods, rng):
        m = flat_torus(*periods)
        base = rng.uniform(0.0, 1.0, (300, 2)) * np.asarray(periods)
        delta = rng.uniform(-1.3, 1.3, (300, 2))
        delta[:4] = [[-0.0, 0.0], [1e-300, -1e-300], [-0.0, -0.0], [0.0, 1e-300]]
        # whole turns on either axis must wrap back
        turns = rng.integers(-2, 3, (300, 2)) * np.asarray(periods)
        target = base + delta + turns
        for a, b in ((base, target), (base.reshape(3, 100, 2), target.reshape(3, 100, 2)),
                     (base[7], target[7])):
            assert_same_bits(log_points(m, a, b), broadcast_wrap(b - a, periods))


class TestLiftGrid:
    def test_curve_with_half_period_steps(self, rng):
        for periods in ((TAU, TAU), (TAU, 4.0)):
            p = np.asarray(periods)
            steps = rng.uniform(-0.45, 0.45, (300, 2)) * p
            # steps of exactly +-period/2 hit the ambiguous boundary both ways
            steps[[10, 50]] = 0.5 * p
            steps[[20, 70]] = -0.5 * p
            values = np.mod(np.cumsum(steps, axis=0) + 0.3, p)
            values[[5, 6]] = [[-0.0, 0.0], [np.nextafter(p[0], 0.0), 0.0]]
            assert_same_bits(lift_grid(values, periods), unwrap_lift(values, periods))

    def test_grid_2d(self, rng):
        periods = (TAU, 4.0)
        p = np.asarray(periods)
        steps = rng.uniform(-0.45, 0.45, (40, 30, 2)) * p
        steps[3, 4] = 0.5 * p
        steps[7, 0] = -0.5 * p
        steps[0, 5] = 0.5 * p
        values = np.mod(np.cumsum(np.cumsum(steps, axis=0), axis=1), p)
        assert_same_bits(lift_grid(values, periods), unwrap_lift(values, periods))

    def test_random_torus_loop(self, rng):
        theta = np.linspace(0.0, TAU, 4097)
        values = np.mod(theta[:, None] * [1.0, -1.0] + rng.uniform(0, TAU, 2), TAU)
        assert_same_bits(lift_grid(values, (TAU, TAU)), unwrap_lift(values, (TAU, TAU)))


class TestUnwrap:
    """``unwrap`` reduces only the steps that can jump, with the bits of
    reducing every step."""

    @pytest.mark.parametrize("winding", [-1, 0, 1])
    def test_loops(self, winding, rng):
        theta = np.linspace(0.0, TAU, 4097)
        p = np.mod(winding * theta + 0.4 * np.sin(3 * theta) + rng.uniform(0, TAU), TAU)
        assert_same_bits(unwrap(p, TAU), full_unwrap(p, TAU))

    def test_nan_node(self, rng):
        p = np.mod(np.cumsum(rng.uniform(-1.0, 1.0, 200)), TAU)
        p[[0, 50, 51, 199]] = np.nan
        assert_same_bits(unwrap(p, TAU), full_unwrap(p, TAU))

    @pytest.mark.parametrize("period", [TAU, 4.0])
    def test_steps_of_exactly_half_a_period(self, period, rng):
        steps = rng.uniform(-0.45, 0.45, 100) * period
        steps[[10, 40]] = 0.5 * period
        steps[[20, 60]] = -0.5 * period
        p = np.cumsum(steps) + 0.3
        for q in (p, np.mod(p, period)):
            assert_same_bits(unwrap(q, period), full_unwrap(q, period))

    def test_grid_2d(self, rng):
        steps = rng.uniform(-0.45, 0.45, (40, 30)) * 4.0
        steps[3, 4], steps[7, 0] = 2.0, -2.0
        p = np.mod(np.cumsum(np.cumsum(steps, axis=0), axis=1), 4.0)
        p[5, 5] = np.nan
        assert_same_bits(unwrap(p, 4.0), full_unwrap(p, 4.0))


def test_cap_chart_rep_reads_the_frame_built_with_the_chart(monkeypatch, rng):
    m = mapcalc.sphere(1.5)
    values = rng.standard_normal((300, 3))
    values = 1.5 * values / np.linalg.norm(values, axis=-1, keepdims=True)
    chart = auto_chart(m, values[values[:, 2] > 0.3])
    want = cap_chart_rep(chart, values)

    def no_frames(*args):
        raise AssertionError("rep built a frame")

    monkeypatch.setattr(target_charts, "frames_at", no_frames)
    assert_same_bits(chart.rep(values), want)


class TestCross:
    def test_broadcast_shapes(self, rng):
        a = rng.standard_normal((257, 3))
        b = rng.standard_normal((257, 3))
        e = np.array([0.0, 0.0, 1.0])
        for x, y in ((a, b), (e, a), (a, e), (e, b[0]), (a[0], b[0])):
            assert_same_bits(cross(x, y), np.cross(x, y))
        grid_a = rng.standard_normal((17, 19, 3))
        grid_b = rng.standard_normal((17, 19, 3))
        assert_same_bits(cross(grid_a, grid_b), np.cross(grid_a, grid_b))

    def test_special_values(self):
        special = np.array([-0.0, 0.0, 1.0, -1e-300, 1e300, np.inf, -np.inf, np.nan])
        grid = np.stack(np.meshgrid(special, special, special, indexing="ij"), axis=-1)
        a = grid.reshape(-1, 3)
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            for b in (a[::-1], np.roll(a, 7, axis=0)):
                assert_same_bits(cross(a, b), np.cross(a, b))


class TestHarmonicTables:
    def test_tables_are_direct_trig_and_read_only(self):
        theta = np.arange(-3, 4098) * (TAU / 4096)
        sines, cosines = harmonic_tables(theta, 3)
        for k in range(3):
            assert_same_bits(sines[k], np.sin((k + 1) * theta))
            assert_same_bits(cosines[k], np.cos((k + 1) * theta))
        for table in (sines, cosines):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
        # the same values give the same tables, also from another array
        assert harmonic_tables(theta.copy(), 3)[0] is sines

    def test_fourier_modes_match_direct_sum(self, rng):
        theta = np.arange(0, 1025) * (TAU / 1024)
        coeffs = rng.standard_normal((3, 2, 3))
        out = rng.standard_normal((1025, 3))
        ref = out.copy()
        for k in range(3):
            s, c = np.sin((k + 1) * theta), np.cos((k + 1) * theta)
            ref = ref + s[:, None] * coeffs[k, 0]
            ref = ref + c[:, None] * coeffs[k, 1]
        assert_same_bits(add_fourier_modes(out, theta, coeffs), ref)

    @pytest.mark.parametrize("trials", [None, 3])
    def test_sphere_loops_match_direct_trig(self, trials, rng):
        m = mapcalc.sphere(1.5)
        mesh = chart_layout(CIRCLE_ATLAS, 4096).mesh
        draws = [loop_draws(m, rng) for _ in range(trials or 1)]
        got = random_loop(m, stack_draws(draws) if trials else draws[0]).fn(mesh)
        theta = mesh[..., 0]
        for k, (coeffs,) in enumerate(draws):
            base = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=-1)
            base = _fourier_sum(base, theta, coeffs)
            want = m.radius * base / np.linalg.norm(base, axis=-1)[..., None]
            assert_same_bits(got[k] if trials else got, want)


def _plain_harmonics(theta, modes):
    angles = [(k + 1) * np.asarray(theta, dtype=float) for k in range(modes)]
    return np.array([np.sin(t) for t in angles]), np.array([np.cos(t) for t in angles])


def _rebind_everywhere(monkeypatch, original, replacement):
    """Rebind ``original`` in every mapcalc module that holds it by name."""
    for module in vars(mapcalc).values():
        if isinstance(module, types.ModuleType) and module.__name__.startswith("mapcalc"):
            for name, value in vars(module).items():
                if value is original:
                    monkeypatch.setattr(module, name, replacement)


def test_reports_keep_their_bytes_with_plain_numpy_kernels(tmp_path, monkeypatch):
    config = ExperimentConfig(resolution=1024, seed=5)
    for suite in ("charts", "topology"):
        run_suite(config, suite, tmp_path / "fast" / suite)
    with monkeypatch.context() as patch:
        _rebind_everywhere(patch, mod_periods,
                           lambda x, periods: np.mod(x, np.asarray(periods, dtype=float)))
        _rebind_everywhere(patch, cross, np.cross)
        _rebind_everywhere(patch, target_charts.unwrap,
                           lambda p, period: np.unwrap(p, period=period, axis=0))
        _rebind_everywhere(patch, maps.harmonic_tables, _plain_harmonics)
        assert target_charts.mod_periods is not mod_periods
        for suite in ("charts", "topology"):
            run_suite(config, suite, tmp_path / "plain" / suite)
    for suite in ("charts", "topology"):
        fast = (tmp_path / "fast" / suite / "report.json").read_bytes()
        assert fast == (tmp_path / "plain" / suite / "report.json").read_bytes()
