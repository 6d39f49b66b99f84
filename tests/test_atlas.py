"""Tests for domain atlases, grid sampling, chart jets, and overlaps."""

import math

import numpy as np
import pytest

from mapcalc import (
    CIRCLE_ATLAS,
    TORUS2_ATLAS,
    FormulaOutOfTarget,
    MapFormula,
    TargetChartViolated,
    chart_jet,
    flat_torus,
    overlap_residual,
    sample_map,
    sphere,
)
from mapcalc.atlas import TAU, chart_rep, compact_slices, grid_coords, grid_ranges
from mapcalc.finite_diff import diff_multi, jets, multi_indices, stencil_radius
from mapcalc.maps import constant_formula, great_circle, torus2_wave, torus_loop
from mapcalc.target_charts import auto_chart

T22 = flat_torus(TAU, TAU)
S1 = sphere(1.0)


def k_chart(f, cid):
    chart = f.atlas.charts[cid]
    return auto_chart(f.target, f.values[cid][compact_slices(chart, f.resolution)])


class TestAtlasGeometry:
    @pytest.mark.parametrize("atlas,count", [(CIRCLE_ATLAS, 2), (TORUS2_ATLAS, 4)])
    def test_chart_counts(self, atlas, count):
        assert len(atlas.charts) == count

    @pytest.mark.parametrize("atlas", [CIRCLE_ATLAS, TORUS2_ATLAS])
    def test_boxes_nested(self, atlas):
        for chart in atlas.charts:
            for (blo, bhi), (elo, ehi), (klo, khi) in zip(
                chart.box, chart.enlarged, chart.compact
            ):
                assert elo < blo < klo < khi < bhi < ehi

    def test_compact_cover_dense(self):
        # every domain sample lies in some embedded compact piece (10x density)
        thetas = np.linspace(0, TAU, 2561, endpoint=False)
        covered = np.zeros_like(thetas, dtype=bool)
        for chart in CIRCLE_ATLAS.charts:
            (klo, khi), = chart.compact
            rep = klo + np.mod(thetas - klo, TAU)
            covered |= rep <= khi
        assert covered.all()

    def test_compact_cover_dense_torus2(self):
        axis = np.linspace(0, TAU, 321, endpoint=False)
        aa, bb = np.meshgrid(axis, axis, indexing="ij")
        covered = np.zeros_like(aa, dtype=bool)
        for chart in TORUS2_ATLAS.charts:
            inside = np.ones_like(aa, dtype=bool)
            for vals, (klo, khi) in zip((aa, bb), chart.compact):
                rep = klo + np.mod(vals - klo, TAU)
                inside &= rep <= khi
            covered |= inside
        assert covered.all()

    def test_grids_share_the_lattice(self):
        res = 64
        h = TAU / res
        for chart in CIRCLE_ATLAS.charts:
            (xs,) = grid_coords(chart, res)
            assert np.allclose(np.mod(xs / h + 0.5, 1.0), 0.5, atol=1e-9)


class TestSampleMap:
    def test_constant_formula(self):
        f = sample_map(CIRCLE_ATLAS, T22, constant_formula(T22, [1.0, 2.0]), 64)
        for vals in f.values:
            assert np.allclose(vals, [1.0, 2.0], atol=0)

    def test_winding_loop_node_value_at_pi(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 256)
        (j0, _), = grid_ranges(CIRCLE_ATLAS.charts[0], 256)
        node = 128 - j0  # lattice index of theta = pi
        assert np.allclose(f.values[0][node], [math.pi, 0.0], atol=1e-12)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 7)

    def test_off_sphere_formula_rejected(self):
        bad = MapFormula("bad", lambda mesh: np.stack(
            [np.cos(mesh[..., 0]), np.sin(mesh[..., 0]), 0.1 + 0 * mesh[..., 0]], axis=-1
        ))
        with pytest.raises(FormulaOutOfTarget):
            sample_map(CIRCLE_ATLAS, S1, bad, 64)


class TestOverlapResidual:
    def test_constant_map_zero(self):
        f = sample_map(CIRCLE_ATLAS, T22, constant_formula(T22, [0.5, 0.5]), 64)
        assert overlap_residual(f) == 0.0

    def test_great_circle_fine_grid(self):
        f = sample_map(CIRCLE_ATLAS, S1, great_circle(1.0), 256)
        assert overlap_residual(f) < 1e-12

    def test_corrupted_node_detected(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 256)
        (j0, _), = grid_ranges(CIRCLE_ATLAS.charts[0], 256)
        node = 128 - j0  # theta = pi lies in both charts
        nodes = f.nodes.copy()
        nodes[node, 0] += 1e-3  # chart 0's nodes come first
        corrupted = f.with_nodes(nodes)
        assert overlap_residual(corrupted) >= 1e-3 * (1 - 1e-6)


class TestChartJets:
    def test_constant_map_zero_derivatives(self):
        f = sample_map(CIRCLE_ATLAS, T22, constant_formula(T22, [1.0, 1.0]), 64)
        jet = chart_jet(f, k_chart(f, 0), 0, 2)
        for alpha, arr in jet.items():
            if sum(alpha) >= 1:
                assert np.max(np.abs(arr)) < 1e-12

    def test_linear_loop_first_derivative(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 128)
        jet = chart_jet(f, k_chart(f, 0), 0, 1)
        assert np.max(np.abs(jet[(1,)][..., 0] - 1.0)) < 1e-12
        assert np.max(np.abs(jet[(1,)][..., 1])) < 1e-12

    def test_sine_second_derivative(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((0, 0), waves=((0, 1.0, 0.0),)), 256)
        chart = CIRCLE_ATLAS.charts[0]
        jet = chart_jet(f, k_chart(f, 0), 0, 2)
        (js,) = compact_slices(chart, 256)
        (j0, _), = grid_ranges(chart, 256)
        thetas = (np.arange(js.start, js.stop) + j0) * (TAU / 256)
        assert np.max(np.abs(jet[(2,)][..., 0] + np.sin(thetas))) < 1e-6

    def test_convergence_order_fourth(self):
        errs = []
        for res in (128, 256):
            f = sample_map(CIRCLE_ATLAS, T22, torus_loop((0, 0), waves=((0, 1.0, 0.0),)), res)
            chart = CIRCLE_ATLAS.charts[0]
            jet = chart_jet(f, k_chart(f, 0), 0, 2)
            (js,) = compact_slices(chart, res)
            (j0, _), = grid_ranges(chart, res)
            thetas = (np.arange(js.start, js.stop) + j0) * (TAU / res)
            errs.append(np.max(np.abs(jet[(2,)][..., 0] + np.sin(thetas))))
        assert 8.0 <= errs[0] / errs[1] <= 32.0

    def test_mixed_partials_symmetric_on_torus_domain(self):
        f = sample_map(TORUS2_ATLAS, T22, torus2_wave(((1, 0), (0, 1)), amp=0.2), 64)
        full = tuple(slice(0, n) for n in f.values[0].shape[:-1])
        rep = chart_rep(f, k_chart(f, 0), 0, full)
        h = TAU / 64
        d12, _ = diff_multi(rep, (1, 1), h)
        # apply the axis stencils in the opposite order
        d1, _ = diff_multi(rep, (1, 0), h)
        d21 = diff_multi(d1, (0, 1), h)[0]
        assert np.max(np.abs(d12 - d21)) < 1e-5

    @pytest.mark.parametrize(
        "target,formula",
        [(S1, great_circle(1.0)), (T22, torus_loop((1, 0), waves=((0, 0.3, 0.4),)))],
    )
    def test_representative_on_the_padded_window_only(self, target, formula):
        # chart_jet builds the representative on the compact piece plus the
        # stencil margin; the jets keep the bits of the full-grid representative
        f = sample_map(CIRCLE_ATLAS, target, formula, 128)
        tchart = k_chart(f, 0)
        full = (slice(0, f.values[0].shape[0]),)
        ksl = compact_slices(CIRCLE_ATLAS.charts[0], 128)
        expected = jets(chart_rep(f, tchart, 0, full), ksl, TAU / 128, 3)
        got = chart_jet(f, tchart, 0, 3)
        assert got.keys() == expected.keys()
        assert all(np.array_equal(got[a], expected[a]) for a in expected)

    def test_jet_order_cap(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        with pytest.raises(ValueError):
            chart_jet(f, k_chart(f, 0), 0, 5)

    def test_containment_enforced(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        g = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0), shift=(2.5, 0)), 64)
        tight = k_chart(f, 0)
        with pytest.raises(TargetChartViolated):
            chart_jet(g, tight, 0, 1)

    def test_higher_orders_on_finer_grids(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((0, 0), waves=((0, 0.5, 0.2),)), 64)
        jet = chart_jet(f, k_chart(f, 0), 0, 4)
        assert (4,) in jet
        assert (3,) in jet


class TestSphereJets:
    def test_great_circle_rep_smooth(self):
        f = sample_map(CIRCLE_ATLAS, S1, great_circle(1.0), 128)
        jet = chart_jet(f, k_chart(f, 0), 0, 2)
        for arr in jet.values():
            assert np.all(np.isfinite(arr))


class TestWindowedJets:
    @pytest.mark.parametrize("shape", [(23,), (17, 19)])
    @pytest.mark.parametrize("k", range(5))
    def test_match_stencils_on_the_untrimmed_grid(self, shape, k, rng):
        # the window leaves exactly the stencil margin; one node less raises
        pad = stencil_radius(k)
        values = rng.standard_normal(shape + (3,))
        h = 0.1
        window = tuple(slice(pad, n - pad) for n in shape)
        got = jets(values, window, h, k)
        assert list(got) == multi_indices(len(shape), k)
        for alpha, block in got.items():
            darr, offsets = diff_multi(values, alpha, h)
            expected = darr[tuple(slice(s.start - o, s.stop - o) for s, o in zip(window, offsets))]
            assert np.array_equal(block, expected)
        n = shape[-1]
        for last in (slice(pad - 1, n - pad), slice(pad, n - pad + 1)):
            with pytest.raises(ValueError, match="grid too coarse"):
                jets(values, window[:-1] + (last,), h, k)
