"""Tests for neighborhoods, the C^k distance, section norms, and the probe."""

import math
import types

import numpy as np
import pytest

from mapcalc import (
    CIRCLE_ATLAS,
    GridFunction,
    HypothesisViolated,
    ResolutionMismatch,
    TargetChartViolated,
    WellDefinednessViolated,
    canonical_cover,
    chart_jet,
    ck_distance,
    composition_bound_probe,
    flat_torus,
    nbhd_contains,
    neighborhood,
    sample_map,
    section_norm,
    sphere,
    witness_ladder,
    zero_section,
)
from mapcalc import atlas, charts, experiments, gridfn, topology
from mapcalc.atlas import TAU, chart_layout, compact_slices, map_sup_distance, overlap_residual
from mapcalc.charts import chart_forward, chart_inverse
from mapcalc.experiments import (
    basis_convergence_failures,
    composition_probe_case,
    homeo_rate_ratios,
    norm_axiom_residuals,
    pseudometric_residuals,
    random_center,
    random_section,
)
from mapcalc.finite_diff import jet_sup, jet_sup_diff, jets, stencil_window
from mapcalc.manifolds import log_dist_points
from mapcalc.maps import great_circle, torus_loop
from mapcalc.sections import PullbackSection, make_section, section_rep
from mapcalc.topology import cover_jets, jets_distance
from oracles import probe_per_radius_ladder, ray_sweep_ratio

T22 = flat_torus(TAU, TAU)
S1 = sphere(1.0)


class TestNeighborhood:
    def test_contains_center(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        nb = neighborhood(f, epsilon=1e-6, order=2)
        assert nbhd_contains(nb, f)

    def test_leaving_target_chart_means_outside(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        nb = neighborhood(f, epsilon=100.0, order=0)
        g = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0), shift=(2.5, 0.0)), 64)
        assert not nbhd_contains(nb, g)

    def test_resolution_mismatch(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        g = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 128)
        nb = neighborhood(f, epsilon=1.0, order=0)
        with pytest.raises(ResolutionMismatch):
            nbhd_contains(nb, g)

    def test_epsilon_positive(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        with pytest.raises(ValueError):
            neighborhood(f, epsilon=0.0, order=0)

    def test_center_jets_computed_once(self, monkeypatch):
        import mapcalc.topology as topology

        calls = []

        def counting(*args):
            calls.append(args)
            return chart_jet(*args)

        monkeypatch.setattr(topology, "chart_jet", counting)
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        nb = neighborhood(f, epsilon=1.0, order=1, chart_ids=(0,))
        for _ in range(5):
            assert nbhd_contains(nb, f)
        assert len(calls) == 5 + 1

    def test_containment_checked_once_per_chart(self, monkeypatch):
        import mapcalc.atlas as atlas

        calls = []
        check = atlas.check_containment

        def counting(*args):
            calls.append(args[2])
            return check(*args)

        for module in (atlas, topology):
            monkeypatch.setattr(module, "check_containment", counting, raising=False)
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        nb = neighborhood(f, epsilon=1.0, order=1)
        calls.clear()
        assert nbhd_contains(nb, f)
        assert calls == list(nb.chart_ids)

    def test_center_outside_its_cover_rejected(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        g = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0), shift=(2.5, 0.0)), 64)
        with pytest.raises(TargetChartViolated):
            neighborhood(f, epsilon=1.0, order=0, cover=canonical_cover(g))

    def test_verdicts_match_dense_grid_oracle(self):
        # sup on the working grid against a brute-force sup on a 10x grid
        c, s = np.cos(0.01), np.sin(0.01)
        z_turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        rotated = great_circle(1.0, rotation=z_turn)
        f = sample_map(CIRCLE_ATLAS, S1, great_circle(1.0), 256)
        g = sample_map(CIRCLE_ATLAS, S1, rotated, 256)
        f10 = sample_map(CIRCLE_ATLAS, S1, great_circle(1.0), 2560)
        g10 = sample_map(CIRCLE_ATLAS, S1, rotated, 2560)
        oracle = ck_distance(f10, g10, 1, cover=canonical_cover(f10))
        wide = neighborhood(f, epsilon=1.05 * oracle, order=1)
        tight = neighborhood(f, epsilon=0.95 * oracle, order=1)
        assert nbhd_contains(wide, g)
        assert not nbhd_contains(tight, g)

    def test_basis_convergence_three_elements(self, rng):
        assert basis_convergence_failures(T22, 96, rng, epsilon=2e-2) == 0

    def test_basis_convergence_builds_each_shrinking_map_once(self, monkeypatch, rng):
        # 30 steps, each map tested against all three neighbourhoods
        calls = []

        def counted(f, s):
            calls.append(s)
            return chart_inverse(f, s)

        monkeypatch.setattr(experiments, "chart_inverse", counted)
        basis_convergence_failures(T22, 32, rng, epsilon=2e-2)
        assert len(calls) == 30


class TestCkDistance:
    def test_zero_on_self(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        assert ck_distance(f, f, 2) == 0.0

    def test_constant_shift_k0_and_k1(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 256)
        g = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0), shift=(0.01, 0.0)), 256)
        assert ck_distance(f, g, 0) == pytest.approx(0.01, abs=1e-12)
        # the derivative difference vanishes, so the order-1 value is the same
        assert ck_distance(f, g, 1) == pytest.approx(0.01, abs=1e-12)

    def test_containment_violation_raises(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        g = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0), shift=(2.5, 0.0)), 64)
        with pytest.raises(TargetChartViolated):
            ck_distance(f, g, 0)

    @pytest.mark.parametrize("m", [T22, S1], ids=["torus", "sphere"])
    def test_pseudometric_residuals_measure_each_pair_once(self, m, rng, monkeypatch):
        # f, g and h take their jets once per chart: 3 maps x 2 charts, and
        # the residuals are those of ck_distance on the same maps and cover
        spied = spy_chart_jets(monkeypatch)
        sym, tri = pseudometric_residuals(m, 64, rng, 2)
        assert_no_repeated_jets(spied, maps=3, charts=2)
        monkeypatch.undo()
        f, g, h = spied.maps
        cover = tuple(spied.charts[c] for c in sorted(spied.charts))

        def d(a, b):
            return ck_distance(a, b, 2, cover=cover)

        assert sym == abs(d(f, g) - d(g, f))
        assert tri == max(0.0, d(f, h) - d(f, g) - d(g, h))

    def test_homeo_rate_ratios_take_the_center_jets_once(self, rng, monkeypatch):
        # the center and one map per rung of the ladder, two charts each
        f = random_center(S1, 64, rng)
        spied = spy_chart_jets(monkeypatch)
        homeo_rate_ratios(f, rng, k=2, ladder=(1e-1, 1e-2, 1e-3))
        assert spied.maps[0] is f
        assert_no_repeated_jets(spied, maps=4, charts=2)

    def test_jets_distance_is_ck_distance(self, rng):
        f = random_center(S1, 64, rng)
        cover = canonical_cover(f)
        g = chart_inverse(f, random_section(f, rng, 0.05, bound=0.2))
        jf, jg = cover_jets(f, cover, 2), cover_jets(g, cover, 2)
        assert jets_distance(jf, jg) == ck_distance(f, g, 2, cover=cover) > 0.0
        with pytest.raises(ValueError):
            jets_distance(jf, jg[:1])


class TestSupsKeepNaN:
    """A sup over charts or multi-indices is NaN when any piece holds a NaN,
    wherever that piece comes in the fold (max(0.0, nan) is 0.0)."""

    @staticmethod
    def nan_in_chart(f, chart):
        vectors = np.zeros_like(f.nodes)
        f.views(vectors)[chart][3] = np.nan
        return vectors

    @pytest.mark.parametrize("chart", [0, 1])
    def test_section_with_a_nan_vector_rejected(self, rng, chart):
        f = random_center(S1, 16, rng)
        with pytest.raises(ValueError):
            PullbackSection(f, self.nan_in_chart(f, chart), 1.0)
        with pytest.raises(ValueError):
            make_section(f, self.nan_in_chart(f, chart))

    @pytest.mark.parametrize("alpha", [(0,), (1,)])
    def test_jet_sup_diff_keeps_nan(self, alpha):
        a = {(0,): np.zeros((5, 2)), (1,): np.full((5, 2), 0.5)}
        b = {key: value.copy() for key, value in a.items()}
        b[alpha][2] = np.nan
        assert math.isnan(jet_sup_diff(a, b))

    @pytest.mark.parametrize("chart", [0, 1])
    def test_jets_distance_keeps_nan(self, chart):
        jets = [{(0,): np.zeros((5, 2))}, {(0,): np.full((5, 2), 0.5)}]
        broken = [{(0,): j[(0,)].copy()} for j in jets]
        broken[chart][(0,)][2] = np.nan
        assert math.isnan(jets_distance(jets, broken))

    @pytest.mark.parametrize("measure", [lambda f: map_sup_distance(f, f), overlap_residual],
                             ids=["map_sup_distance", "overlap_residual"])
    @pytest.mark.parametrize("piece", [0, 1])
    def test_node_distance_sups_keep_nan(self, monkeypatch, measure, piece):
        # two charts' nodes for the map distance, two shared-node blocks for the overlap
        f = sample_map(CIRCLE_ATLAS, S1, great_circle(), 16)
        calls = iter(range(2))
        starts = chart_layout(f.atlas, f.resolution).starts

        def dist(m, a, b):
            d = np.full(a.shape[:-1], 0.25)
            if len(d) == starts[-1]:  # one call over every node of the map
                d[starts[piece]] = np.nan
            elif next(calls) == piece:
                d[:] = np.nan
            return d

        monkeypatch.setattr(atlas, "dist_points", dist)
        assert math.isnan(measure(f))

    @pytest.mark.parametrize("chart", [0, 1])
    def test_chart_forward_gap_keeps_nan(self, monkeypatch, chart):
        f = sample_map(CIRCLE_ATLAS, S1, great_circle(), 16)

        def log_dist(m, base, target):
            vecs, d = log_dist_points(m, base, target)
            d[chart_layout(f.atlas, f.resolution).starts[chart]] = np.nan  # one call, every node
            return vecs, d

        monkeypatch.setattr(charts, "log_dist_points", log_dist)
        with pytest.raises(WellDefinednessViolated):
            chart_forward(f, f, 0.1)

    @pytest.mark.parametrize("chart", [0, 1])
    def test_jet_convergence_ratio_keeps_nan(self, monkeypatch, chart):
        def jet(f, tchart, cid, k):
            out = chart_jet(f, tchart, cid, k)
            if cid == chart:
                out[(2,)] = out[(2,)] * np.nan
            return out

        monkeypatch.setattr(experiments, "chart_jet", jet)
        assert math.isnan(experiments.jet_convergence_ratio())


def spy_chart_jets(monkeypatch):
    """Record every ``topology.chart_jet`` call, keeping its maps alive so
    that their ids stay unique."""
    spied = types.SimpleNamespace(keys=[], maps=[], charts={})

    def spy(f, tchart, cid, k):
        spied.keys.append((id(f), id(tchart), cid, k))
        if not any(f is seen for seen in spied.maps):
            spied.maps.append(f)
        spied.charts.setdefault(cid, tchart)
        return chart_jet(f, tchart, cid, k)

    monkeypatch.setattr(topology, "chart_jet", spy)
    return spied


def assert_no_repeated_jets(spied, maps, charts):
    assert len(spied.maps) == maps
    assert len(spied.keys) == len(set(spied.keys)) == maps * charts


class TestSectionNorm:
    def test_zero_section(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        assert section_norm(zero_section(f), 2) == 0.0

    def test_constant_section_k0(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        from mapcalc.sections import make_section

        c = 0.37
        s = make_section(f, np.zeros_like(f.nodes) + [c, 0.0])
        assert section_norm(s, 0) == pytest.approx(c, abs=1e-15)

    def test_sine_section_k1(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 256)
        from mapcalc.sections import section_from_formula

        s = section_from_formula(
            f, lambda mesh: np.stack(
                [np.sin(mesh[..., 0]), np.zeros_like(mesh[..., 0])], axis=-1
            )
        )
        # sup of the values and of the first derivative are both 1
        assert section_norm(s, 1) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("m", [T22])
    def test_norm_axioms(self, m, rng):
        hom, tri = norm_axiom_residuals(m, 128, rng, 2)
        assert hom < 1e-12
        assert tri < 1e-12

    @pytest.mark.parametrize("k", [0, 2])
    def test_windowed_rep_is_full_rep_sliced(self, k, rng):
        # frames take their reference axis from the whole chart grid, so a
        # node's components do not depend on the window they are built over
        f = random_center(S1, 96, rng)
        s = random_section(f, rng, 0.2)
        for chart in f.atlas.charts:
            shape = f.values[chart.id].shape[:-1]
            full = section_rep(s, chart.id, tuple(slice(0, n) for n in shape))
            outer, _ = stencil_window(compact_slices(chart, f.resolution), k, shape)
            assert np.array_equal(section_rep(s, chart.id, outer), full[outer])

    @staticmethod
    def full_grid_norm(s, k):
        """Max over charts of the jet sup of the full-grid trivialization,
        differentiated at the compact-piece nodes."""
        f = s.base_map
        sups = []
        for chart in f.atlas.charts:
            full = tuple(slice(0, n) for n in f.values[chart.id].shape[:-1])
            rep = section_rep(s, chart.id, full)
            window = compact_slices(chart, f.resolution)
            sups.append(jet_sup(jets(rep, window, TAU / f.resolution, k)))
        return max(sups)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_circle_domain_norm_is_the_full_grid_oracle(self, k, rng):
        f = random_center(S1, 96, rng)
        s = random_section(f, rng, 0.2)
        assert section_norm(s, k) == self.full_grid_norm(s, k)

    def test_two_dimensional_domain(self):
        from mapcalc import TORUS2_ATLAS
        from mapcalc.maps import torus2_wave
        from mapcalc.sections import section_from_formula

        f = sample_map(TORUS2_ATLAS, T22, torus2_wave(((1, 0), (0, 1))), 24)
        s = section_from_formula(
            f,
            lambda mesh: np.stack(
                [np.sin(mesh[..., 0]), 0.5 * np.cos(mesh[..., 1])], axis=-1
            ),
        )
        norm = section_norm(s, 2)
        # order-0 sup is the largest fiber norm over the compact pieces
        assert 1.0 <= norm < 3.0
        assert norm == self.full_grid_norm(s, 2)


class TestCompositionProbe:
    def test_identical_sample_skipped(self):
        f1 = GridFunction.sample(np.sin, 0, TAU, 200)
        assert composition_bound_probe(lambda y: y**2, f1, [f1], R=1.0, k=1) == 0.0

    def test_lipschitz_case_bounded(self):
        f1 = GridFunction.sample(lambda x: 0.4 * np.sin(3 * x), 0, 1, 200)
        samples = [
            GridFunction.sample(lambda x, c=c: 0.4 * np.sin(3 * x) + c, 0, 1, 200)
            for c in (0.05, -0.1, 0.2)
        ]
        ratio = composition_bound_probe(lambda y: 2.0 * y, f1, samples, R=1.0, k=0)
        assert ratio <= 2.0 + 1e-9

    def test_radius_violation_rejected(self):
        f1 = GridFunction.sample(np.sin, 0, TAU, 200)
        far = GridFunction.sample(lambda x: np.sin(x) + 0.5, 0, TAU, 200)
        with pytest.raises(HypothesisViolated):
            composition_bound_probe(lambda y: y**2, f1, [far], R=0.1, k=0)

    def test_box_violation_rejected(self):
        f1 = GridFunction.sample(np.sin, 0, TAU, 200)
        out = GridFunction.sample(lambda x: 1.2 * np.sin(x), 0, TAU, 200)
        with pytest.raises(HypothesisViolated):
            composition_bound_probe(
                lambda y: y**2, f1, [out], R=2.0, k=0, box=((-1.0, 1.0),)
            )

    def test_sampled_ratio_dominated_by_ray_sweep(self, rng):
        # every sample sits on a ray; a sweep along the rays with the sample's
        # own parameter included can only raise the witness
        case = composition_probe_case(rng, count=100)
        psi = lambda y: y**2
        ratio = composition_bound_probe(
            psi, case["f1"], case["samples"], R=1.0, k=1, box=case["box"]
        )
        assert ratio <= ray_sweep_ratio(case["f1"], case["rays"], psi) + 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ladder_is_one_probe_per_radius(self, seed):
        case = composition_probe_case(np.random.default_rng([seed, 18]), count=100)
        args = (lambda y: y**2, case["f1"], case["samples"], (0.1, 0.5, 1.0), 1, case["box"])
        witnesses = witness_ladder(*args)
        assert witnesses == probe_per_radius_ladder(*args)
        assert witnesses[-1] > 0.0

    def test_ladder_takes_each_jet_once(self, rng, monkeypatch):
        # f1 and psi(f1) once per ladder, each sample and its composition once
        calls = []

        def spy(*args):
            calls.append(args)
            return jets(*args)

        monkeypatch.setattr(gridfn, "jets", spy)
        case = composition_probe_case(rng, count=100)
        witness_ladder(
            lambda y: y**2, case["f1"], case["samples"], (0.1, 0.5, 1.0), k=1, box=case["box"]
        )
        assert len(calls) <= 202
