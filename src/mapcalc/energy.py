"""Discrete Dirichlet energy on loop spaces and chart-based gradient descent.

Loops are sampled maps on the circle; the lattice grid convention makes the
loop samples uniformly spaced, and each loop point is the node at its own
lattice index, so the loop is one run of the node array.  Descent steps
along the H^1 (Sobolev) gradient and retracts along the chart at the
current iterate, so every accepted step stays inside a chart by
construction.
"""

from __future__ import annotations

import math
import weakref
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
)
from .charts import chart_inverse, default_delta
from .errors import StepOutOfChart, TrialAxisUnsupported
from .manifolds import (
    inner_points,
    log_points,
    torus_wrap,
)
from .sections import (
    PullbackSection,
    make_section,
    section_scale,
    section_sup,
)

# Halvings of a rejected trial step before ``descend`` gives up on an iterate.
MAX_HALVINGS = 30


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
def _loop_lattice(atlas: DomainAtlas, n: int) -> tuple[slice, np.ndarray]:
    """The nodes of the loop lattice points, as a slice of the node array,
    and the loop lattice point of every node, as read-only indices into the
    loop.

    Loop point j has its node at its own lattice index j, and the box runs
    past both ends of the loop, so the loop is one run of nodes.
    """
    layout = chart_layout(atlas, n)
    (lo,) = layout.lo
    points = (np.arange(len(layout.mesh)) + lo) % n
    points.flags.writeable = False
    return slice(-lo, n - lo), points


@lru_cache(maxsize=32)
def _loop_neighbors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The next and the previous point of each point of a loop of ``n``
    points, as read-only indices into the loop."""
    neighbors = np.arange(1, n + 1) % n, np.arange(-1, n - 1) % n
    for arr in neighbors:
        arr.flags.writeable = False
    return neighbors


# the forward edge logs of each loop still alive, keyed by the map: maps are
# immutable and hash by identity, and an entry goes with its map
_FORWARD_LOGS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _forward_logs(f: SampledMap, vals: np.ndarray) -> np.ndarray:
    """Read-only logarithms from each loop value ``vals`` of ``f`` toward the
    next, computed once per map.

    The energy and the gradient of a loop both read them, so the energy of
    an accepted descent trial hands its logs to the next gradient.
    """
    logs = _FORWARD_LOGS.get(f)
    if logs is None:
        logs = log_points(f.target, vals, vals[_loop_neighbors(f.resolution)[0]])
        logs.flags.writeable = False
        _FORWARD_LOGS[f] = logs
    return logs


def loop_values(f: SampledMap) -> np.ndarray:
    """Values on the global loop lattice, a view of the nodes: each loop
    point's node is the one at its own lattice index."""
    _require_circle(f)
    if f.trials is not None:
        raise TrialAxisUnsupported(f"loop_values takes one map, not a batch of {f.trials}")
    return f.nodes[_loop_lattice(f.atlas, f.resolution)[0]]


def loop_step(f: SampledMap) -> float:
    return TAU / f.resolution


def dirichlet_energy(f: SampledMap) -> float:
    """One half the sum of squared geodesic gaps per unit parameter length.

    Exact summation makes the value independent of the starting index.
    """
    vals = loop_values(f)
    gaps = _forward_logs(f, vals)
    sq = inner_points(f.target, vals, gaps, gaps)
    return 0.5 * math.fsum(sq.tolist()) / loop_step(f)


def energy_gradient(f: SampledMap) -> PullbackSection:
    """Nodewise energy gradient as a section along f.

    At each loop node this is minus the sum of the logarithms toward the two
    neighbors, divided by the squared step; chart grid nodes inherit the
    value of their lattice point, so no interpolation is involved.
    """
    grad = -_geodesic_laplacian(f, loop_values(f))
    return make_section(f, grad[_loop_lattice(f.atlas, f.resolution)[1]])


@lru_cache(maxsize=32)
def _sobolev_symbol(n: int) -> np.ndarray:
    """The Fourier symbol of I - Delta_h on a loop of ``n`` points, as a
    read-only column."""
    symbol = 1.0 + (2.0 * np.sin(np.pi * np.arange(n) / n) / (TAU / n)) ** 2
    column = symbol[:, None]
    column.flags.writeable = False
    return column


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
    smooth = np.fft.ifft(np.fft.fft(grad, axis=0) / _sobolev_symbol(n), axis=0).real
    return make_section(f, smooth[_loop_lattice(f.atlas, n)[1]])


def _geodesic_laplacian(f: SampledMap, vals: np.ndarray) -> np.ndarray:
    """Sum of the logarithms from the loop values ``vals`` of ``f`` toward
    both neighbors, over the squared step."""
    bwd = log_points(f.target, vals, vals[_loop_neighbors(f.resolution)[1]])
    return (_forward_logs(f, vals) + bwd) / loop_step(f) ** 2


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
    grad_tol: float = 1e-8,
    on_step: Callable[[int, SampledMap], None] | None = None,
) -> tuple[SampledMap, DescentTrace]:
    """Sobolev gradient descent with the chart at the current iterate as retraction.

    The direction is ``sobolev_gradient``, and the run stops once its sup
    norm is at most ``grad_tol``.  Each trial step must fit inside the chart
    bound of the iterate; on an energy increase the step is halved, at most
    ``MAX_HALVINGS`` times.  ``step_size`` is the first trial.  The next
    iterate tries the accepted step doubled when the first trial held, and
    the accepted step itself after any halving, so it never retries a step
    just rejected.  Each trace row records the accepted step; a stop row
    records the trial that would have come next.
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
        first = trial
        for _ in range(MAX_HALVINGS + 1):
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
        if trial == first:  # no halving, so a longer step may hold too
            trial = 2.0 * trial
    return f, DescentTrace(tuple(rows))

