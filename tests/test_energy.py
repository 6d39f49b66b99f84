"""Tests for the discrete loop energy and the chart-based descent."""

import math
import weakref
from collections import Counter

import numpy as np
import pytest

from mapcalc import (
    CIRCLE_ATLAS,
    DescentTrace,
    StepOutOfChart,
    chart_inverse,
    descend,
    dirichlet_energy,
    energy_gradient,
    flat_torus,
    sample_map,
    section_add,
    section_scale,
    section_sup,
    sphere,
    winding_numbers,
)
from mapcalc import energy
from mapcalc.atlas import TAU
from mapcalc.cli import ExperimentConfig
from mapcalc.energy import _loop_lattice, loop_step, loop_values, sobolev_gradient
from mapcalc.experiments import (
    DEFAULT_SPHERE,
    DEFAULT_TORUS,
    TORUS_DEMO_LOOP,
    random_section,
    sphere_descent_demo,
    torus_descent_demo,
    trace_monotone_violation,
)
from mapcalc.charts import apply_fiber_matrices
from mapcalc.manifolds import fiber_derivative_points, inner_points, log_points, project_tangent
from mapcalc.maps import sphere_cap_loop, torus_loop
from oracles import (
    chart_node_array,
    constant_formula,
    fixed_chart_step,
    geodesic_residual,
    loop_inner,
    serial_descend,
)

T22 = flat_torus(TAU, TAU)
S1 = sphere(1.0)


class TestDirichletEnergy:
    def test_constant_loop_zero(self):
        f = sample_map(CIRCLE_ATLAS, T22, constant_formula(T22, [1.0, 1.0]), 64)
        assert dirichlet_energy(f) == 0.0

    def test_winding_one(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 256)
        assert dirichlet_energy(f) == pytest.approx(math.pi, abs=1e-6)

    def test_winding_two(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((2, 0)), 256)
        assert dirichlet_energy(f) == pytest.approx(4 * math.pi, abs=1e-5)

    def test_rotation_invariance_exact(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0), waves=((0, 0.2, 0.4),)), 128)
        vals = loop_values(f)
        gaps = log_points(T22, vals, np.roll(vals, -1, axis=0))
        terms = inner_points(T22, vals, gaps, gaps)
        sums = {
            math.fsum(np.roll(terms, k).tolist()) for k in (0, 7, 31, 100)
        }
        assert len(sums) == 1

    def test_uniform_loop_spacing(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 96)
        assert loop_values(f).shape == (96, 2)

    def test_too_coarse_sampling_rejected(self):
        from mapcalc import BeyondInjectivityRadius

        # consecutive samples of a winding-4 loop at resolution 8 sit at the
        # cut locus of each other
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((4, 0)), 8)
        with pytest.raises(BeyondInjectivityRadius):
            dirichlet_energy(f)


class TestEnergyGradient:
    def test_straight_loop_is_critical(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 128)
        assert section_sup(energy_gradient(f)) < 1e-8

    def test_constant_loop_is_critical(self):
        f = sample_map(CIRCLE_ATLAS, S1, constant_formula(S1, [0, 0, 1]), 64)
        assert section_sup(energy_gradient(f)) == 0.0

    @pytest.mark.parametrize("m,formula", [
        (T22, torus_loop((1, 0), waves=((0, 0.25, 0.3), (1, 0.2, 1.2)))),
        (S1, sphere_cap_loop(1.0, 0.6)),
    ])
    def test_matches_directional_difference(self, m, formula, rng):
        f = sample_map(CIRCLE_ATLAS, m, formula, 128)
        worst = 0.0
        for _ in range(5):
            s = random_section(f, rng, 0.05)
            eps = 1e-4
            e_plus = dirichlet_energy(chart_inverse(f, section_scale(s, eps)))
            e_minus = dirichlet_energy(chart_inverse(f, section_scale(s, -eps)))
            fd = (e_plus - e_minus) / (2 * eps)
            pairing = loop_inner(f, energy_gradient(f), s)
            worst = max(worst, abs(fd - pairing) / max(abs(fd), 1e-12))
        assert worst < 1e-5


PERTURBED_LOOPS = [
    (T22, torus_loop((1, 0), waves=((0, 0.3, 0.4), (1, 0.2, 1.1)))),
    (T22, torus_loop((1, 1), waves=((0, 0.2, 0.1),))),
    (T22, torus_loop((0, 0), waves=((0, 0.4, 0.0), (1, 0.3, 0.7)))),
    (S1, sphere_cap_loop(1.0, 0.5)),
    (S1, sphere_cap_loop(1.0, 1.2)),
]


class TestSobolevGradient:
    @pytest.mark.parametrize("m,formula", [PERTURBED_LOOPS[0], PERTURBED_LOOPS[3]])
    def test_matches_dense_circulant_solve(self, m, formula):
        f = sample_map(CIRCLE_ATLAS, m, formula, 64)
        n, h = f.resolution, loop_step(f)
        # I - Delta_h for the periodic second difference, as a dense matrix
        shift = np.roll(np.eye(n), 1, axis=1)
        op = (1.0 + 2.0 / h**2) * np.eye(n) - (shift + shift.T) / h**2
        owner = _loop_lattice(f.atlas, n)[0]  # the node that holds each loop point
        grad = energy_gradient(f).vectors[owner]
        expected = project_tangent(m, loop_values(f), np.linalg.solve(op, grad))
        got = sobolev_gradient(f).vectors[owner]
        assert np.max(np.abs(got - expected)) < 1e-12

    @pytest.mark.parametrize("m,formula", PERTURBED_LOOPS)
    def test_is_a_descent_direction(self, m, formula, rng):
        f0 = sample_map(CIRCLE_ATLAS, m, formula, 48)
        for f in [f0] + [chart_inverse(f0, random_section(f0, rng, 0.05))
                         for _ in range(3)]:
            assert geodesic_residual(f) > 1e-3
            assert loop_inner(f, energy_gradient(f), sobolev_gradient(f)) > 0.0


class TestDescend:
    def test_geodesic_start_stays_put(self):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 64)
        final, trace = descend(f, 20, 0.05, grad_tol=1e-12)
        energies = trace.energies
        assert np.max(np.abs(energies - energies[0])) < 1e-8
        assert dirichlet_energy(final) == pytest.approx(dirichlet_energy(f), abs=1e-8)

    def test_converged_iterate_solves_discrete_geodesic_equation(self):
        f = sample_map(
            CIRCLE_ATLAS, T22, torus_loop((1, 0), waves=((0, 0.1, 0.2),)), 32
        )
        final, trace = descend(f, 3000, 0.1, grad_tol=1e-8)
        assert section_sup(energy_gradient(final)) < 1e-6
        assert geodesic_residual(final) < 1e-5

    @pytest.mark.parametrize("demo,resolution_field", [
        (torus_descent_demo, "descent_resolution"),
        (sphere_descent_demo, "sphere_descent_resolution"),
    ])
    def test_iteration_count_is_mesh_independent(self, demo, resolution_field):
        counts = [len(demo(n, 5000, 0.1)[1].rows) for n in (64, 128, 256, 512)]
        assert all(abs(c - counts[0]) <= 3 for c in counts), counts
        # the default-config demo stops on grad_tol long before the step cap
        config = ExperimentConfig()
        _, trace, *_ = demo(
            getattr(config, resolution_field), config.descent_steps, config.descent_step_size
        )
        assert len(trace.rows) < 100

    def test_default_tolerance_stops_before_the_step_cap(self):
        # the README example, without an explicit grad_tol
        f0 = sample_map(
            CIRCLE_ATLAS, T22, torus_loop((1, 0), waves=((0, 0.3, 0.4),)), 128
        )
        final, trace = descend(f0, 500, 0.1)
        assert len(trace.rows) < 100
        assert trace.rows[-1][2] <= 1e-8
        assert dirichlet_energy(final) == pytest.approx(math.pi, abs=1e-9)

    def test_step_out_of_chart(self):
        f = sample_map(
            CIRCLE_ATLAS, T22, torus_loop((1, 0), waves=((0, 0.3, 0.0),)), 64
        )
        # an enormous first step stays outside the chart bound through every halving
        with pytest.raises(StepOutOfChart):
            descend(f, 1, 1e300)

    def test_winding_preserved_along_run(self):
        f0 = sample_map(
            CIRCLE_ATLAS, T22, torus_loop((1, 1), waves=((0, 0.2, 0.1),)), 64
        )
        seen = []
        descend(f0, 200, 0.1, on_step=lambda i, cur: seen.append(winding_numbers(cur)))
        assert set(seen) == {(1, 1)}


# (demo, its start loop, grad_tol, the config field of its resolution)
DEMOS = {
    "torus": (torus_descent_demo, DEFAULT_TORUS, TORUS_DEMO_LOOP, 1e-8, "descent_resolution"),
    "sphere": (sphere_descent_demo, DEFAULT_SPHERE, sphere_cap_loop(1.0, 0.5), 1e-9,
               "sphere_descent_resolution"),
}


class TestDescentWork:
    @pytest.mark.parametrize("step_size", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("resolution", [16, 64])
    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_demo_matches_serial_descent(self, name, resolution, step_size):
        demo, m, formula, grad_tol, _ = DEMOS[name]
        result, trace, *_ = demo(resolution, 2500, step_size)
        f0 = sample_map(CIRCLE_ATLAS, m, formula, resolution)
        final, want = serial_descend(f0, 2500, step_size, grad_tol)
        got = list(trace.rows)
        assert len(got) == len(want)
        assert got[-1][2] <= grad_tol  # a stop row, whose next trial may differ
        assert np.array(got[:-1]).tobytes() == np.array(want[:-1]).tobytes()
        assert np.array(got[-1][:3]).tobytes() == np.array(want[-1][:3]).tobytes()
        if name == "torus":  # the demo returns the final map, the sphere demo its energy
            assert result.nodes.tobytes() == final.nodes.tobytes()
        else:
            assert result == dirichlet_energy(final)

    @pytest.mark.parametrize("name,trials,logs", [("torus", 22, 40), ("sphere", 49, 85)])
    def test_default_pass_work_is_pinned(self, name, trials, logs, monkeypatch):
        # doubling after every accepted step, and taking the forward logs
        # again per gradient, made 27 and 65 trials and 62 and 139 logs
        demo, *_, field = DEMOS[name]
        counts = Counter()
        for fn in ("dirichlet_energy", "log_points"):
            def counted(*args, _fn=getattr(energy, fn), _name=fn):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(energy, fn, counted)
        config = ExperimentConfig()
        final = demo(getattr(config, field), config.descent_steps, config.descent_step_size)[0]
        assert counts["dirichlet_energy"] - 1 == trials  # the first call is the start
        assert counts["log_points"] == logs
        if name == "torus":  # the final energy the report records reads the kept logs
            energy.dirichlet_energy(final)
            assert counts["log_points"] == logs

    def test_forward_logs_are_read_only_and_freed(self, monkeypatch):
        f0 = sample_map(CIRCLE_ATLAS, T22, TORUS_DEMO_LOOP, 32)
        vals = loop_values(f0)
        dirichlet_energy(f0)
        logs = energy._FORWARD_LOGS[f0]
        assert np.array_equal(logs, log_points(T22, vals, np.roll(vals, -1, axis=0)))
        assert not logs.flags.writeable
        with pytest.raises(ValueError):
            logs[0, 0] = 1.0
        sobolev_gradient(f0)
        assert energy._FORWARD_LOGS[f0] is logs
        candidates = []

        def recorded(f, s):
            g = chart_inverse(f, s)
            candidates.append(weakref.ref(g))
            return g

        monkeypatch.setattr(energy, "chart_inverse", recorded)
        final, trace = descend(f0, 2500, 0.3, grad_tol=1e-8)
        assert len(candidates) > len(trace.rows)  # some trials were rejected
        # only the final iterate lives on, and the logs of no other map are kept
        assert [ref() for ref in candidates if ref() is not None] == [final]
        assert final in energy._FORWARD_LOGS


class TestMonotoneViolation:
    @staticmethod
    def trace(energies):
        return DescentTrace(tuple((i, e, 0.1, 0.05) for i, e in enumerate(energies)))

    @pytest.mark.parametrize(
        "energies, violation", [([], 0.0), ([1.0], 0.0), ([2.0, 1.0, 1.25, 1.0], 0.25)]
    )
    def test_largest_rise(self, energies, violation):
        assert trace_monotone_violation(self.trace(energies)) == violation

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_energy_is_a_nan_violation(self, position):
        energies = [2.0, 1.5, 1.0]
        energies[position] = math.nan
        assert math.isnan(trace_monotone_violation(self.trace(energies)))


class TestWindingNumbers:
    @pytest.mark.parametrize("winding", [(1, 0), (2, 0), (0, -1), (-3, 2)])
    def test_torus_loop_winding(self, winding):
        f = sample_map(
            CIRCLE_ATLAS, T22, torus_loop(winding, waves=((0, 0.4, 0.7), (1, 0.3, 0.2))), 128
        )
        assert winding_numbers(f) == winding

    def test_sphere_target_rejected(self):
        f = sample_map(CIRCLE_ATLAS, S1, sphere_cap_loop(1.0, 0.6), 64)
        with pytest.raises(ValueError):
            winding_numbers(f)


class TestFixedChartDescent:
    FIXED_CHART_LOOPS = [
        (T22, torus_loop((1, 0), waves=((0, 0.2, 0.3),))),
        (S1, sphere_cap_loop(1.0, 0.6)),
    ]

    @pytest.mark.parametrize("m,formula", FIXED_CHART_LOOPS)
    def test_step_matches_per_chart_inverse_loop(self, m, formula, rng):
        # the per-chart fiber derivatives the step inverted before it took
        # them from one metric_transition_batch
        f0 = sample_map(CIRCLE_ATLAS, m, formula, 64)
        s = random_section(f0, rng, 0.05)
        current = chart_inverse(f0, s)
        inverses = chart_node_array(f0, [
            np.linalg.inv(fiber_derivative_points(m, m, fv, gv, sv))
            for fv, gv, sv in zip(f0.values, current.values, f0.views(s.vectors))
        ])
        grad = apply_fiber_matrices(current, f0, inverses, energy_gradient(current))
        ref = section_add(s, section_scale(grad, -0.01))
        assert np.array_equal(fixed_chart_step(f0, s, 0.01).vectors, ref.vectors)

    @pytest.mark.parametrize("m,formula", FIXED_CHART_LOOPS)
    def test_agrees_with_moving_chart_to_second_order(self, m, formula, rng):
        from mapcalc import map_sup_distance

        f0 = sample_map(CIRCLE_ATLAS, m, formula, 64)
        s0 = random_section(f0, rng, 0.05)
        gaps = []
        etas = (2e-2, 1e-2, 5e-3)
        for eta in etas:
            current = chart_inverse(f0, s0)
            moving = chart_inverse(
                current, section_scale(energy_gradient(current), -eta)
            )
            fixed = chart_inverse(f0, fixed_chart_step(f0, s0, eta))
            gaps.append(map_sup_distance(moving, fixed))
        if max(gaps) < 1e-12:
            return  # flat case: the two updates coincide outright
        rates = [g / eta**2 for g, eta in zip(gaps, etas)]
        assert max(rates) < 4 * min(rates)
