"""Tests for domain atlases, grid sampling, chart jets, and overlaps."""

import itertools
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
from mapcalc.atlas import (
    TAU,
    Chart,
    SampledMap,
    chart_layout,
    chart_rep,
    circle_atlas,
    torus2_atlas,
)
from mapcalc.energy import _loop_lattice, loop_values
from mapcalc.experiments import random_center
from mapcalc.finite_diff import diff_multi, jets, multi_indices, stencil_radius
from mapcalc.maps import great_circle, torus2_wave, torus_loop
from mapcalc.target_charts import auto_chart
from oracles import (
    compact_slices,
    constant_formula,
    grid_coords,
    grid_ranges,
    loop_owners,
    pairwise_overlap_residual,
    shared_nodes,
)

T22 = flat_torus(TAU, TAU)
S1 = sphere(1.0)


def k_chart(f, cid):
    return auto_chart(f.target, f.values[cid][f.layout.compact[cid]])


class TestAtlasGeometry:
    @pytest.mark.parametrize("atlas,count", [(CIRCLE_ATLAS, 2), (TORUS2_ATLAS, 4)])
    def test_chart_counts(self, atlas, count):
        assert len(atlas.charts) == count

    @pytest.mark.parametrize("atlas", [CIRCLE_ATLAS, TORUS2_ATLAS])
    def test_boxes_nested(self, atlas):
        for chart in atlas.charts:
            for (elo, ehi), (klo, khi) in zip(chart.enlarged, chart.compact):
                assert elo < klo < khi < ehi

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

    def test_cache_lookups_hash_no_chart(self, monkeypatch):
        fresh, fresh_torus = circle_atlas(), torus2_atlas()
        assert fresh == CIRCLE_ATLAS and fresh is not CIRCLE_ATLAS
        assert hash(fresh) == hash(CIRCLE_ATLAS) and fresh != fresh_torus
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        hashed = []
        chart_hash = Chart.__hash__
        monkeypatch.setattr(Chart, "__hash__", lambda c: hashed.append(c) or chart_hash(c))
        assert chart_layout(fresh, 64) is chart_layout(CIRCLE_ATLAS, 64)
        assert chart_layout(fresh_torus, 16) is chart_layout(TORUS2_ATLAS, 16)
        assert _loop_lattice(fresh, 64) is _loop_lattice(CIRCLE_ATLAS, 64)
        loop_values(f)
        sample_map(fresh, T22, torus_loop((1, 0)), 64)
        assert hashed == []

    def test_grids_share_the_lattice(self):
        # every chart grid is a window into the layout's mesh
        res = 64
        h = TAU / res
        xs = chart_layout(CIRCLE_ATLAS, res).mesh
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
        # theta = 0 in chart 0 and theta = 2 pi in chart 1 are one period
        # apart, so they stay two nodes, and a change to one shows
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 256)
        (j0, _), = grid_ranges(CIRCLE_ATLAS.charts[0], 256)
        nodes = f.nodes.copy()
        f.views(nodes)[0][0 - j0, 0] += 1e-3
        corrupted = f.with_nodes(nodes)
        assert overlap_residual(corrupted) >= 1e-3 * (1 - 1e-6)


class TestChartLayout:
    @pytest.mark.parametrize("atlas,res,count", [
        (CIRCLE_ATLAS, 64, 97), (CIRCLE_ATLAS, 4096, 6145), (TORUS2_ATLAS, 32, 2401),
    ])
    def test_one_node_per_lattice_point(self, atlas, res, count):
        layout = chart_layout(atlas, res)
        assert len(layout.mesh) == count
        lattice = np.rint(layout.mesh / (TAU / res)).astype(int)
        assert len(np.unique(lattice, axis=0)) == count

    @pytest.mark.parametrize("atlas,res", [(CIRCLE_ATLAS, 64), (TORUS2_ATLAS, 16)])
    def test_same_index_nodes_share_memory(self, atlas, res):
        # why charts agree exactly at a lattice point both reach at one index
        f = sample_map(atlas, T22, constant_formula(T22, [0.5, 0.5]), res)
        views = f.values
        shared = 0
        for ci, cj in itertools.combinations(range(len(atlas.charts)), 2):
            ri, rj = (grid_ranges(atlas.charts[c], res) for c in (ci, cj))
            common = [range(max(a[0], b[0]), min(a[1], b[1]) + 1) for a, b in zip(ri, rj)]
            for point in itertools.product(*common):
                a = tuple(j - r[0] for j, r in zip(point, ri))
                b = tuple(j - r[0] for j, r in zip(point, rj))
                assert np.shares_memory(views[ci][a], views[cj][b])
                shared += 1
        assert shared > 0
        # a point one period apart along the first axis keeps a node of its
        # own: chart 0 and the chart that differs from it along that axis only
        other = len(atlas.charts) // 2
        (j0, _), *_ = grid_ranges(atlas.charts[0], res)
        (j1, _), *_ = grid_ranges(atlas.charts[other], res)
        rest = (0,) * (atlas.dim - 1)
        assert not np.shares_memory(views[0][(0 - j0, *rest)], views[other][(res - j1, *rest)])


def _sphere_wave(mesh):
    """A map from the 2-torus onto the unit sphere that varies along both axes."""
    x, y = mesh[..., 0], mesh[..., 1]
    polar = 1.2 + 0.3 * np.sin(x + 2 * y)
    azimuth = y + 0.4 * np.cos(3 * x)
    return np.stack(
        [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=-1
    )


# odd resolutions, and even ones that are not multiples of 4, put compact
# bounds and enlarged box ends between lattice points
LATTICES = [(CIRCLE_ATLAS, range(8, 131)), (TORUS2_ATLAS, range(8, 41))]


class TestOneLatticeIndex:
    """The layout's windows, compact slices, period-apart pairs and loop
    nodes equal the chart-by-chart lattice indexing of ``oracles``."""

    @pytest.mark.parametrize("atlas,resolutions", LATTICES, ids=["circle", "torus2"])
    def test_windows_and_compact_slices(self, atlas, resolutions):
        for res in resolutions:
            layout = chart_layout(atlas, res)
            ranges = [grid_ranges(chart, res) for chart in atlas.charts]
            assert layout.lo == tuple(min(r[a][0] for r in ranges) for a in range(atlas.dim))
            mesh = layout.mesh.reshape(layout.box + (atlas.dim,))
            for chart, window, piece in zip(atlas.charts, layout.windows, layout.compact):
                axes = np.meshgrid(*grid_coords(chart, res), indexing="ij")
                assert np.array_equal(mesh[window], np.stack(axes, axis=-1))
                assert piece == compact_slices(chart, res)

    @pytest.mark.parametrize("atlas,resolutions", LATTICES, ids=["circle", "torus2"])
    def test_overlap_compares_each_period_apart_pair_once(self, monkeypatch, atlas, resolutions):
        # every node holds its own index, so each distance call shows its pairs
        compared = []

        def dist(m, a, b):
            compared.extend(zip(a[..., 0].ravel().astype(int), b[..., 0].ravel().astype(int)))
            return np.zeros(a.shape[:-1])

        monkeypatch.setattr("mapcalc.atlas.dist_points", dist)
        for res in resolutions:
            layout = chart_layout(atlas, res)
            index = np.repeat(np.arange(len(layout.mesh), dtype=float)[:, None], 2, axis=1)
            compared.clear()
            assert overlap_residual(SampledMap(atlas, T22, res, index)) == 0.0
            expected = set()
            for ci, cj in itertools.combinations(range(len(atlas.charts)), 2):
                for idx_i, idx_j in shared_nodes(atlas, res, ci, cj):
                    pairs = zip(layout.chart_nodes(ci)[idx_i], layout.chart_nodes(cj)[idx_j])
                    expected |= {frozenset(p) for p in pairs if p[0] != p[1]}
            assert len(compared) == len(expected)
            assert {frozenset(p) for p in compared} == expected

    @pytest.mark.parametrize("target", [S1, T22])
    def test_overlap_residual_on_the_circle(self, target, rng):
        for res in range(8, 131):
            f = random_center(target, res, rng)
            assert overlap_residual(f) == pairwise_overlap_residual(f)

    @pytest.mark.parametrize("target,formula", [
        (S1, MapFormula("sphere_wave", _sphere_wave)),
        (T22, torus2_wave(((1, 2), (-1, 1)), amp=0.3)),
    ])
    def test_overlap_residual_on_the_torus(self, target, formula):
        for res in range(8, 41):
            f = sample_map(TORUS2_ATLAS, target, formula, res)
            assert overlap_residual(f) == pairwise_overlap_residual(f)

    def test_loop_nodes(self, rng):
        for n in range(8, 131):
            layout = chart_layout(CIRCLE_ATLAS, n)
            nodes, points = _loop_lattice(CIRCLE_ATLAS, n)
            owners = loop_owners(CIRCLE_ATLAS, n)
            assert np.array_equal(np.arange(len(layout.mesh))[nodes], owners)
            assert np.array_equal(points, np.rint(layout.mesh[:, 0] / (TAU / n)).astype(int) % n)
            f = random_center(T22, n, rng)
            assert np.shares_memory(loop_values(f), f.nodes)
            assert np.array_equal(loop_values(f), f.nodes[owners])


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
        (js,) = f.layout.compact[0]
        (j0, _), = grid_ranges(chart, 256)
        thetas = (np.arange(js.start, js.stop) + j0) * (TAU / 256)
        assert np.max(np.abs(jet[(2,)][..., 0] + np.sin(thetas))) < 1e-6

    def test_convergence_order_fourth(self):
        errs = []
        for res in (128, 256):
            f = sample_map(CIRCLE_ATLAS, T22, torus_loop((0, 0), waves=((0, 1.0, 0.0),)), res)
            chart = CIRCLE_ATLAS.charts[0]
            jet = chart_jet(f, k_chart(f, 0), 0, 2)
            (js,) = f.layout.compact[0]
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
        ksl = f.layout.compact[0]
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
