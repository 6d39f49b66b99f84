"""Stacked trial batches: maps and sections with a leading trial axis.

The transition rows run all their trials as one batch; each trial must give
the bits of the serial oracle, every gate must hold per trial, a NaN must
stay in its own trial, and the layers that read grid axes must refuse a
batch instead of misreading its trial axis.
"""

import numpy as np
import pytest

from mapcalc import (
    CIRCLE_ATLAS,
    TrialAxisUnsupported,
    WellDefinednessViolated,
    canonical_cover,
    chart_inverse,
    chart_jet,
    flat_torus,
    loop_values,
    make_section,
    overlap_residual,
    section_max_diff,
    section_norm,
    sphere,
    transition,
    zero_section,
)
from mapcalc import experiments as ex
from mapcalc.cli import ExperimentConfig, build_suite, execute_checks
from mapcalc.atlas import TAU, chart_layout, piece_jets
from mapcalc.finite_diff import trial_sup
from mapcalc.io import write_map_csv, write_section_csv
from mapcalc.maps import great_circle
from mapcalc.sections import section_from_formula
from oracles import (
    serial_chain_rule_residual,
    serial_cocycle_residual,
    serial_derivative_identity_residual,
)

S1 = sphere(1.0)
T22 = flat_torus(TAU, TAU)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def seeded():
    return np.random.default_rng([7, 31])


def batch_of(maps):
    """Single maps stacked into one batch along a new trial axis."""
    return maps[0].with_nodes(np.stack([g.nodes for g in maps]))


class TestSerialOracle:
    @pytest.mark.parametrize("trials", [1, 3, 10])
    def test_cocycle_draws_interleave_targets(self, trials):
        got = ex.cocycle_residuals((S1, T22), 64, seeded(), trials)
        rng = seeded()
        want = [[serial_cocycle_residual(m, 64, rng) for m in (S1, T22)] for _ in range(trials)]
        assert same_bits(got, want)

    @pytest.mark.parametrize("m", [S1, T22], ids=["sphere", "torus"])
    @pytest.mark.parametrize("trials", [1, 3, 10])
    def test_derivative_identity(self, m, trials):
        got = ex.derivative_identity_residuals(m, 64, seeded(), trials)
        rng = seeded()
        want = zip(*[serial_derivative_identity_residual(m, 64, rng) for _ in range(trials)])
        assert all(same_bits(g, w) for g, w in zip(got, want, strict=True))

    @pytest.mark.parametrize("m", [S1, T22], ids=["sphere", "torus"])
    @pytest.mark.parametrize("trials", [1, 3, 10])
    def test_chain_rule(self, m, trials):
        got = ex.chain_rule_residuals(m, 64, seeded(), trials)
        rng = seeded()
        assert same_bits(got, [serial_chain_rule_residual(m, 64, rng) for _ in range(trials)])

    def test_trials_span_two_capped_batches(self, monkeypatch):
        # at resolution 2048 a map has 4,098 nodes, so a batch holds three trials
        assert ex.TRIAL_BATCH_NODES // chart_layout(CIRCLE_ATLAS, 2048).starts[-1] == 3
        sizes = []
        sample = ex.sample_map

        def counted(atlas, target, formula, resolution):
            sizes.append(formula.trials)
            return sample(atlas, target, formula, resolution)

        monkeypatch.setattr(ex, "sample_map", counted)
        rng = seeded()
        got = ex.cocycle_residuals((S1, T22), 2048, seeded(), 4)
        assert same_bits(got, [[serial_cocycle_residual(m, 2048, rng) for m in (S1, T22)]
                               for _ in range(4)])
        assert sizes == [3, 3, 1, 1]  # per batch, the sphere's then the torus's centers
        for m in (S1, T22):
            rng = seeded()
            got = ex.derivative_identity_residuals(m, 2048, seeded(), 4)
            want = zip(*[serial_derivative_identity_residual(m, 2048, rng) for _ in range(4)])
            assert all(same_bits(g, w) for g, w in zip(got, want, strict=True))
        rng = seeded()
        got = ex.chain_rule_residuals(S1, 2048, seeded(), 4)
        assert same_bits(got, [serial_chain_rule_residual(S1, 2048, rng) for _ in range(4)])


def sphere_batch(trials, fields):
    """A batch of random sphere loops at resolution 16 and ``fields`` fields along them."""
    ((f, vfs),) = next(ex.trial_batches((S1,), 16, seeded(), trials, fields))
    return f, vfs


def assert_error_row(name):
    """The row ``name`` of the transitions suite, at three trials (the chain
    rule's are six halved), is an error row with a non-finite residual."""
    config = ExperimentConfig(resolution=16, trials=3 if name != "transition_chain_rule" else 6)
    checks = [c for c in build_suite(config, "transitions", None) if c.name == name]
    execute_checks(checks)
    row = checks[0].as_report()
    assert row["residual"] is None and row["pass"] is False
    assert "non-finite" in row["error"]


class TestPerTrialSup:
    def test_nan_stays_in_its_trial(self):
        f, (vf,) = sphere_batch(3, 1)
        s = section_from_formula(f, vf, 0.1, bound=0.2)
        assert s.sup.shape == (3,) and np.allclose(s.sup, 0.1)
        s.vectors[1, 5, 0] = np.nan  # planted after the section's own check
        diff = section_max_diff(s, zero_section(f))
        assert np.isnan(diff).tolist() == [False, True, False]
        assert trial_sup(np.array([[0.0, 1.0], [np.nan, 2.0]]), 2)[0] == 1.0

    def test_each_trial_scales_to_its_own_sup(self):
        f, (vf,) = sphere_batch(4, 1)
        s = section_from_formula(f, vf, 0.3, bound=0.5)
        for t in range(4):
            alone = f.with_nodes(f.nodes[t])
            one = section_from_formula(alone, lambda mesh: vf(mesh)[t], 0.3, bound=0.5)
            assert same_bits(s.vectors[t], one.vectors)
            assert s.sup[t] == one.sup

    def test_nan_trial_fails_the_derivative_identity(self, monkeypatch):
        differences = ex.transition_differences

        def planted(*args, **kwargs):
            ((fd, analytic),) = differences(*args, **kwargs)
            fd.vectors[1, 5, 0] = np.nan
            return [(fd, analytic)]

        monkeypatch.setattr(ex, "transition_differences", planted)
        resid, rel = ex.derivative_identity_residuals(S1, 16, seeded(), 3)
        assert np.isnan(resid).tolist() == np.isnan(rel).tolist() == [False, True, False]
        assert_error_row("transition_derivative_sphere")

    def test_nan_trial_fails_the_chain_rule(self, monkeypatch):
        derivative, calls = ex.transition_derivative, []

        def planted(*args):
            out = derivative(*args)
            calls.append(out)
            if len(calls) == 3:  # the direct derivative
                out.vectors[2, 3, 1] = np.nan
            return out

        monkeypatch.setattr(ex, "transition_derivative", planted)
        rel = ex.chain_rule_residuals(S1, 16, seeded(), 3)
        assert np.isnan(rel).tolist() == [False, False, True]
        calls.clear()
        assert_error_row("transition_chain_rule")


class TestPerTrialGates:
    def test_margin_holds_per_trial_not_for_the_largest_bound_and_distance(self):
        # trial 0 sends a long section through exp at a near center, trial 1
        # a short one at a far center; the largest bound plus the largest
        # distance (3.4) exceeds pi, yet each trial alone stays inside
        base = ex.sample_map(CIRCLE_ATLAS, S1, great_circle(1.0), 32)
        f = batch_of([base, base])
        up = np.broadcast_to([0.0, 0.0, 1.0], f.nodes.shape[1:])
        lift = make_section(f, np.stack([0.05 * up, 1.7 * up]), bound=1.8)
        g = chart_inverse(f, lift)
        s = make_section(f, np.stack([1.7 * up, 0.05 * up]))
        moved = transition(f, g, s)
        for t in range(2):
            alone = [x.with_nodes(x.nodes[t]) for x in (f, g)]
            one = transition(*alone, make_section(alone[0], s.vectors[t]))
            assert same_bits(moved.vectors[t], one.vectors)

    def test_one_trial_over_the_margin_fails_the_batch(self):
        base = ex.sample_map(CIRCLE_ATLAS, S1, great_circle(1.0), 32)
        f = batch_of([base, base])
        up = np.broadcast_to([0.0, 0.0, 1.0], f.nodes.shape[1:])
        g = chart_inverse(f, make_section(f, np.stack([0.05 * up, 1.7 * up])))
        s = make_section(f, np.stack([0.05 * up, 1.5 * up]))
        with pytest.raises(WellDefinednessViolated, match="3.2"):
            transition(f, g, s)


class TestGridLayersRefuseBatches:
    @pytest.fixture
    def batch(self):
        f, (vf,) = sphere_batch(2, 1)
        return f, section_from_formula(f, vf, 0.1, bound=0.2)

    def test_chart_jet(self, batch):
        f, _ = batch
        cover = canonical_cover(f.with_nodes(f.nodes[0]))
        with pytest.raises(TrialAxisUnsupported):
            chart_jet(f, cover[0], 0, 1)
        with pytest.raises(TrialAxisUnsupported):
            piece_jets(f, 0, 1, lambda window: f.values[0][window])

    def test_canonical_cover(self, batch):
        with pytest.raises(TrialAxisUnsupported):
            canonical_cover(batch[0])

    def test_section_norm(self, batch):
        with pytest.raises(TrialAxisUnsupported):
            section_norm(batch[1], 1)

    def test_loop_values(self, batch):
        with pytest.raises(TrialAxisUnsupported):
            loop_values(batch[0])

    def test_overlap_residual(self, batch):
        with pytest.raises(TrialAxisUnsupported):
            overlap_residual(batch[0])

    def test_csv_writers(self, batch, tmp_path):
        with pytest.raises(TrialAxisUnsupported):
            write_map_csv(batch[0], tmp_path / "map.csv")
        with pytest.raises(TrialAxisUnsupported):
            write_section_csv(batch[1], tmp_path / "section.csv")
        assert not list(tmp_path.iterdir())
