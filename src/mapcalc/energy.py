"""Discrete Dirichlet energy on loop spaces and chart-based gradient descent.

Loops are sampled maps on the circle; the lattice grid convention makes the
loop samples uniformly spaced, with each domain point contributed by the
chart whose compact piece owns it.  Descent steps along the H^1 (Sobolev)
gradient and retracts along the chart at the current iterate, so every
accepted step stays inside a chart by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .atlas import (
    CIRCLE,
    TAU,
    DomainAtlas,
    SampledMap,
    chart_layout,
    compact_slices,
    grid_ranges,
    require_single,
)
from .charts import apply_fiber_matrices, chart_inverse, default_delta, metric_transition_batch
from .errors import StepOutOfChart
from .manifolds import (
    inner_points,
    log_points,
    norm_points,
    torus_wrap,
)
from .sections import (
    PullbackSection,
    make_section,
    section_add,
    section_scale,
    section_sup,
)


@dataclass(frozen=True, eq=False)
class DescentTrace:
    """Per-iterate record of (step index, energy, gradient norm, step size)."""

    rows: tuple[tuple[int, float, float, float], ...]

    def __post_init__(self):
        steps = [r[0] for r in self.rows]
        if steps != sorted(steps):
            raise ValueError("trace rows must be ordered by step")
        if any(r[3] <= 0 for r in self.rows):
            raise ValueError("step sizes must be positive")

    @property
    def energies(self) -> np.ndarray:
        return np.array([r[1] for r in self.rows])


def _require_circle(f: SampledMap) -> None:
    if f.atlas.kind != CIRCLE:
        raise ValueError("loop energies are defined for circle domains")


@lru_cache(maxsize=32)
def _loop_lattice(atlas: DomainAtlas, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The node owning each loop lattice point, and the loop lattice point of
    every node, as indices into the node array and the loop.

    A point is owned by the compact piece that holds it, half-open at the
    upper end so the pieces tile the circle.  The arrays are shared between
    callers, so they are read-only.
    """
    h = TAU / n
    _, starts, mesh = chart_layout(atlas, n)
    owner = np.full(n, -1)
    for chart, start in zip(atlas.charts, starts):
        (j0, _), = grid_ranges(chart, n)
        (ksl,) = compact_slices(chart, n)
        local = np.arange(ksl.start, ksl.stop)
        local = local[(j0 + local) * h < chart.compact[0][1] - 1e-12]
        owner[(j0 + local) % n] = start + local
    if np.any(owner < 0):
        raise ValueError("compact pieces do not cover the loop lattice")
    # a node's chart coordinate is its lattice index times h
    lattice = owner, np.rint(mesh[:, 0] / h).astype(int) % n
    for arr in lattice:
        arr.flags.writeable = False
    return lattice


def loop_values(f: SampledMap) -> np.ndarray:
    """Values on the global loop lattice, each node owned by one compact piece."""
    _require_circle(f)
    require_single(f, "loop_values")
    return f.nodes[_loop_lattice(f.atlas, f.resolution)[0]]


def loop_step(f: SampledMap) -> float:
    return TAU / f.resolution


def dirichlet_energy(f: SampledMap) -> float:
    """One half the sum of squared geodesic gaps per unit parameter length.

    Exact summation makes the value independent of the starting index.
    """
    vals = loop_values(f)
    m = f.target
    dtheta = loop_step(f)
    gaps = log_points(m, vals, np.roll(vals, -1, axis=0))
    sq = inner_points(m, vals, gaps, gaps)
    return 0.5 * math.fsum(sq.tolist()) / dtheta


def energy_gradient(f: SampledMap) -> PullbackSection:
    """Nodewise energy gradient as a section along f.

    At each loop node this is minus the sum of the logarithms toward the two
    neighbors, divided by the squared step; chart grid nodes inherit the
    value of their lattice point, so no interpolation is involved.
    """
    grad = -_geodesic_laplacian(f, loop_values(f))
    return make_section(f, grad[_loop_lattice(f.atlas, f.resolution)[1]])


def sobolev_gradient(f: SampledMap) -> PullbackSection:
    """The H^1 gradient (I - Delta_h)^{-1} of the energy gradient, as a section.

    Delta_h is the periodic second difference on the loop lattice, so the
    solve is diagonal in Fourier space, one ambient component at a time.
    The operator is symmetric positive definite, so for the round and flat
    metrics the projected result pairs positively with the energy gradient;
    unlike the L2 gradient, it does not grow stiffer as the resolution grows.
    """
    n = f.resolution
    grad = energy_gradient(f).vectors[_loop_lattice(f.atlas, n)[0]]
    symbol = 1.0 + (2.0 * np.sin(np.pi * np.arange(n) / n) / loop_step(f)) ** 2
    smooth = np.fft.ifft(np.fft.fft(grad, axis=0) / symbol[:, None], axis=0).real
    return make_section(f, smooth[_loop_lattice(f.atlas, n)[1]])


def loop_inner(f: SampledMap, s: PullbackSection, t: PullbackSection) -> float:
    """Weighted inner product pairing gradients with directional derivatives."""
    vals = loop_values(f)
    owner = _loop_lattice(f.atlas, f.resolution)[0]
    sv, tv = s.vectors[owner], t.vectors[owner]
    return float(np.sum(inner_points(f.target, vals, sv, tv)) * loop_step(f))


def _geodesic_laplacian(f: SampledMap, vals: np.ndarray) -> np.ndarray:
    """Sum of the logarithms toward both loop neighbors over the squared step."""
    m = f.target
    fwd = log_points(m, vals, np.roll(vals, -1, axis=0))
    bwd = log_points(m, vals, np.roll(vals, 1, axis=0))
    return (fwd + bwd) / loop_step(f) ** 2


def geodesic_residual(f: SampledMap) -> float:
    """Sup norm of the discrete geodesic equation over the loop nodes."""
    vals = loop_values(f)
    return float(np.max(norm_points(f.target, vals, _geodesic_laplacian(f, vals))))


def winding_numbers(f: SampledMap) -> tuple[int, ...]:
    """Integer homotopy data of a torus-valued loop, per target axis."""
    if f.target.kind != "torus":
        raise ValueError("winding numbers are defined for torus targets")
    vals = loop_values(f)
    steps = torus_wrap(f.target, np.diff(np.vstack([vals, vals[:1]]), axis=0))
    total = steps.sum(axis=0)
    return tuple(int(round(t / p)) for t, p in zip(total, f.target.periods))


def descend(
    f0: SampledMap,
    steps: int,
    step_size: float,
    max_halvings: int = 30,
    grad_tol: float = 1e-8,
    on_step: Callable[[int, SampledMap], None] | None = None,
) -> tuple[SampledMap, DescentTrace]:
    """Sobolev gradient descent with the chart at the current iterate as retraction.

    The direction is ``sobolev_gradient``, and the run stops once its sup
    norm is at most ``grad_tol``.  Each trial step must fit inside the chart
    bound of the iterate; on an energy increase the step is halved, at most
    ``max_halvings`` times.  ``step_size`` is the first trial; each accepted
    step size carries over, doubled, as the next trial.
    """
    f = f0
    rows = []
    energy = dirichlet_energy(f)
    trial = step_size
    for it in range(steps):
        direction = sobolev_gradient(f)
        gnorm = section_sup(direction)
        if gnorm <= grad_tol:
            rows.append((it, energy, gnorm, trial))
            break
        delta = default_delta(f)
        accepted = None
        for _ in range(max_halvings + 1):
            if trial * gnorm >= delta:
                trial *= 0.5
                continue
            candidate = chart_inverse(f, section_scale(direction, -trial))
            cand_energy = dirichlet_energy(candidate)
            if cand_energy <= energy:
                accepted = (candidate, cand_energy)
                break
            trial *= 0.5
        if accepted is None:
            raise StepOutOfChart(
                f"no admissible decreasing step at iterate {it} (gradient {gnorm:.3g})"
            )
        f, energy = accepted
        rows.append((it, energy, gnorm, trial))
        if on_step is not None:
            on_step(it, f)
        trial = 2.0 * trial
    return f, DescentTrace(tuple(rows))


def fixed_chart_step(
    f0: SampledMap, s: PullbackSection, step_size: float
) -> PullbackSection:
    """One descent step taken inside the fixed chart at f0.

    The tangent step at the current map is transported into the chart
    through the inverse of the chart-inverse fiber derivative, then added
    linearly to the section.  This is the moving-chart update seen through
    the fixed chart, so the two trajectories agree to second order in the
    step size.
    """
    m = f0.target
    current = chart_inverse(f0, s)
    mats, _ = metric_transition_batch(f0, current, s, [], m, m, step=1e-6)
    chart_grad = apply_fiber_matrices(current, f0, np.linalg.inv(mats), energy_gradient(current))
    return section_add(s, section_scale(chart_grad, -step_size))
