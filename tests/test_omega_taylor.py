"""Tests for the composition-operator calculus and the Taylor remainder."""

import math

import numpy as np
import pytest

from mapcalc import (
    FiberBoxViolated,
    GridFunction,
    OmegaKernel,
    TaylorData,
    ThickeningViolated,
    grid_jet_sup_diff,
    omega_apply,
    omega_derivative,
    taylor_identity_residual,
    taylor_remainder,
    thickening_admissible,
)
from mapcalc.experiments import (
    omega_fd_residual,
    standard_kernels,
    taylor_cases,
    taylor_quadratic_residual,
)

TAU = 2 * math.pi


class TestOmegaApply:
    def test_identity_kernel(self):
        kernel = OmegaKernel(
            (0.0, TAU), ((-2.0, 2.0),),
            value=lambda xs, ys: ys,
            fiber_derivative=lambda xs, ys: np.ones_like(ys)[..., None],
        )
        f = GridFunction.sample(np.sin, 0, TAU, 200)
        out = omega_apply(kernel, f)
        assert np.array_equal(out.values, f.values)

    def test_square_of_sine(self):
        kernel = standard_kernels()["square"]
        f = GridFunction.sample(np.sin, 0, TAU, 200)
        out = omega_apply(kernel, f)
        assert np.max(np.abs(out.values[:, 0] - np.sin(f.xs) ** 2)) < 1e-15

    def test_parametrized_kernel_pointwise(self, rng):
        kernel = standard_kernels()["sinx_times_y"]
        coeffs = rng.uniform(-0.3, 0.3, size=4)
        f = GridFunction.sample(
            lambda x: sum(c * np.cos((k + 1) * x) for k, c in enumerate(coeffs)), 0, TAU, 300
        )
        out = omega_apply(kernel, f)
        assert np.max(np.abs(out.values[:, 0] - np.sin(f.xs) * f.values[:, 0])) < 1e-14

    def test_fiber_box_enforced(self):
        kernel = standard_kernels()["exp"]
        f = GridFunction.sample(lambda x: 1.5 * np.sin(x), 0, TAU, 100)
        with pytest.raises(FiberBoxViolated):
            omega_apply(kernel, f)


class TestOmegaDerivative:
    def test_square_kernel_closed_form(self):
        kernel = standard_kernels()["square"]
        f = GridFunction.sample(np.sin, 0, TAU, 300)
        h = GridFunction.sample(np.cos, 0, TAU, 300)
        out = omega_derivative(kernel, f, h)
        assert np.max(np.abs(out.values[:, 0] - 2 * np.sin(f.xs) * np.cos(f.xs))) < 1e-14

    def test_linear_fiber_kernel_ignores_basepoint(self):
        kernel = standard_kernels()["sinx_times_y"]
        f1 = GridFunction.sample(lambda x: 0.3 * np.sin(x), 0, TAU, 300)
        f2 = GridFunction.sample(lambda x: 0.8 * np.cos(x), 0, TAU, 300)
        h = GridFunction.sample(lambda x: np.cos(2 * x), 0, TAU, 300)
        out1 = omega_derivative(kernel, f1, h)
        out2 = omega_derivative(kernel, f2, h)
        assert np.array_equal(out1.values, out2.values)
        assert np.max(np.abs(out1.values[:, 0] - np.sin(f1.xs) * h.values[:, 0])) < 1e-14

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_two_component_fiber(self, r):
        # g(x, y) = (y0^2 + y1, sin(x) y1) with its exact fiber derivative
        def value(xs, ys):
            return np.stack([ys[:, 0] ** 2 + ys[:, 1], np.sin(xs) * ys[:, 1]], axis=-1)

        def d_fiber(xs, ys):
            n = len(xs)
            out = np.zeros((n, 2, 2))
            out[:, 0, 0] = 2 * ys[:, 0]
            out[:, 0, 1] = 1.0
            out[:, 1, 1] = np.sin(xs)
            return out

        kernel = OmegaKernel((0.0, TAU), ((-1.4, 1.4), (-1.4, 1.4)), value, d_fiber)

        def f_fn(x):
            return np.stack([0.7 * np.sin(x), 0.5 * np.cos(2 * x)], axis=-1)

        def h_fn(x):
            return np.stack([0.4 * np.cos(x), 0.3 * np.sin(3 * x)], axis=-1)

        f = GridFunction(0.0, TAU, f_fn(np.linspace(0, TAU, 512)))
        h = GridFunction(0.0, TAU, h_fn(np.linspace(0, TAU, 512)))
        assert omega_fd_residual(kernel, f, h, r) < 1e-5


def jet_sup(f, k):
    """The C^k sup of a grid function, as its jet distance to zero."""
    return grid_jet_sup_diff(f, GridFunction(f.lo, f.hi, np.zeros_like(f.values)), k)


class TestGridNorms:
    def test_cr_norm_of_sine(self):
        # 401 nodes put a grid point exactly at pi/2, where |sin| peaks
        f = GridFunction.sample(np.sin, 0, TAU, 401)
        assert jet_sup(f, 2) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("k, pad", [(0, 0), (1, 2), (2, 2), (3, 3), (4, 3)])
    def test_window_at_every_order(self, k, pad):
        # x^5 and its derivatives grow on [0, 1], so each sup sits at the last
        # window node, pad nodes in from the end; the stencil error is below 1e-8
        f = GridFunction.sample(lambda x: x**5, 0.0, 1.0, 101)
        x = 1.0 - pad * 0.01
        derivs = (x**5, 5 * x**4, 20 * x**3, 60 * x**2, 120 * x)
        assert jet_sup(f, k) == pytest.approx(max(derivs[: k + 1]), rel=1e-7)

    def test_order_past_the_stencils_rejected(self):
        f = GridFunction.sample(np.sin, 0, TAU, 50)
        with pytest.raises(ValueError, match="no central stencil for derivative order 5"):
            grid_jet_sup_diff(f, f, 5)

    def test_component_counts_must_match(self):
        one = GridFunction.sample(np.sin, 0, TAU, 50)
        two = GridFunction.sample(lambda x: np.stack([np.sin(x), np.cos(x)], axis=-1), 0, TAU, 50)
        with pytest.raises(ValueError):
            grid_jet_sup_diff(one, two, 1)


class TestTaylor:
    def test_zero_displacement_exact(self):
        for data in taylor_cases().values():
            assert taylor_remainder(data, [0.4], [0.0]) == 0.0

    def test_quadratic_remainder_is_h(self):
        assert taylor_quadratic_residual(0.7, 0.25) < 1e-12
        assert taylor_quadratic_residual(-0.3, 0.11) < 1e-12

    def test_identity_two_dimensional(self):
        # f(u) = sin(u0) * exp(u1 / 2), expanded to second order
        def fn(u):
            return math.sin(u[0]) * math.exp(u[1] / 2)

        def d1(u):
            e = math.exp(u[1] / 2)
            return np.array([math.cos(u[0]) * e, math.sin(u[0]) * e / 2])

        def d2(u):
            e = math.exp(u[1] / 2)
            return np.array(
                [
                    [-math.sin(u[0]) * e, math.cos(u[0]) * e / 2],
                    [math.cos(u[0]) * e / 2, math.sin(u[0]) * e / 4],
                ]
            )

        data = TaylorData(2, ((-2.0, 2.0), (-2.0, 2.0)), fn, (d1, d2))
        assert taylor_identity_residual(data, [0.3, -0.2], [0.15, 0.1]) < 1e-10

    def test_thickening_clauses(self, rng):
        data = taylor_cases()["sin_r2"]
        for _ in range(20):
            u = rng.uniform(-1.9, 1.9)
            # contains (u, 0)
            assert thickening_admissible(data, [u], [0.0])
            h = rng.uniform(-0.5, 0.5)
            if thickening_admissible(data, [u], [h]):
                # segment closure and projection to the base region
                for t in np.linspace(0, 1, 7):
                    assert data.contains(np.array([u + t * h]))
                assert data.contains(np.array([u]))

    def test_inadmissible_rejected(self):
        data = taylor_cases()["sin_r1"]
        with pytest.raises(ThickeningViolated):
            taylor_remainder(data, [1.9], [0.5])
