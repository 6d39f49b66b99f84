"""Exp-map charts on the mapping space, transitions, and operator calculus.

A chart identifies maps g close to a center f with sections of the
pullback tangent bundle along f, fiberwise through the logarithm.  The
transition between two overlapping charts acts nodewise by the fiber map
v -> log_g(exp_f(v)); its derivative is the nodewise fiber derivative of
that map, which is the identity this package exists to check numerically.
The same fiberwise picture drives the composition operator machinery and
the Banach-space Taylor expansion with integral remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .atlas import SampledMap, map_sup_distance, same_discretization
from .errors import (
    BaseMismatch,
    FiberBoxViolated,
    ThickeningViolated,
    WellDefinednessViolated,
)
from .gridfn import GridFunction
from .manifolds import (
    TORUS,
    TargetManifold,
    apply_in_frames,
    exp_points,
    fiber_matrices,
    fiber_probes,
    frames_at,
    inj_radius,
    log_dist_points,
    log_points,
    reduce_points,
    require_log_reach,
)
from .sections import PullbackSection, make_section, maps_equal


def default_delta(f: SampledMap, factor: float = 0.4) -> float:
    """Default chart bound along f: a 1/6 margin of the injectivity radius."""
    return factor * inj_radius(f.target) / 6.0


# ---------------------------------------------------------------------------
# charts and transitions


def chart_forward(f: SampledMap, g: SampledMap, delta: float) -> PullbackSection:
    """Represent g in the chart centered at f: nodewise logarithm along f.

    Each chart's logarithm gives both the gap to g and the section; a gap
    at or over ``delta`` is reported before any pair beyond the injectivity
    radius.
    """
    if not delta < inj_radius(f.target):
        raise WellDefinednessViolated("delta must stay below the injectivity radius")
    same_discretization(f, g)
    logs = [log_dist_points(f.target, fv, gv) for fv, gv in zip(f.values, g.values)]
    gap = max([0.0, *(float(np.max(d)) for _, d in logs)])
    if not gap < delta:
        raise WellDefinednessViolated(
            f"maps are {gap:.6g} apart, not within the chart bound {delta:.6g}"
        )
    for _, d in logs:
        require_log_reach(f.target, d)
    return PullbackSection(f, tuple(vecs for vecs, _ in logs), float(delta))


def chart_inverse(f: SampledMap, s: PullbackSection) -> SampledMap:
    """Leave the chart at f: nodewise exponential of the section."""
    if not maps_equal(s.base_map, f):
        raise BaseMismatch("section is not based on the chart center")
    if not min(s.bound, s.sup * (1 + 1e-12)) < inj_radius(f.target):
        raise WellDefinednessViolated(
            "section is too large to push through the exponential map"
        )
    vals = [
        reduce_points(f.target, exp_points(f.target, fv, v))
        for fv, v in zip(f.values, s.vectors)
    ]
    return f.with_values(vals)


def transition(f: SampledMap, g: SampledMap, s: PullbackSection) -> PullbackSection:
    """Re-center a section from the chart at f to the chart at g.

    The margin requirement is symmetric in the two charts: the section
    bound plus the distance between the centers must stay below the
    injectivity radius, so the fiber maps are defined on the whole range.
    """
    if not maps_equal(s.base_map, f):
        raise BaseMismatch("section is not based on the source chart center")
    gap = map_sup_distance(f, g)
    budget = s.bound + gap
    inj = inj_radius(g.target)
    if not budget < inj:
        raise WellDefinednessViolated(
            f"section bound plus center distance {budget:.6g} exceeds the chart margin"
        )
    moved = chart_inverse(f, s)
    delta = budget * (1.0 + 1e-12) + 1e-300
    if delta >= inj:
        delta = 0.5 * (budget + inj)
    return chart_forward(g, moved, delta)


def transition_derivative(
    f: SampledMap,
    g: SampledMap,
    s0: PullbackSection,
    s: PullbackSection,
    step: float = 1e-6,
) -> PullbackSection:
    """Derivative of the chart transition at s0, applied to s, nodewise.

    Acts through the fiber derivative of v -> log_g(exp_f(v)) at s0; on the
    flat torus this is exactly the identity on vectors.
    """
    if not maps_equal(s0.base_map, f) or not maps_equal(s.base_map, f):
        raise BaseMismatch("sections are not based on the source chart center")
    m = f.target
    gap = map_sup_distance(f, g)
    # slack covers the finite-difference probes around s0
    if not s0.bound + gap + 2 * step < inj_radius(m):
        raise WellDefinednessViolated("base section leaves the transition margin")
    mats, _ = metric_transition_batch(f, g, s0, [], m, m, step=step)
    return apply_fiber_matrices(f, g, mats, s)


def metric_transition(
    f: SampledMap,
    s: PullbackSection | Sequence[PullbackSection],
    m_from: TargetManifold,
    m_to: TargetManifold,
) -> PullbackSection | list[PullbackSection]:
    """Transition at a fixed center between charts built from two metrics.

    ``s`` may be one section or a sequence of them, all along f; the nodes of
    every section and chart go through one exp batch and one log batch, and
    a list of sections comes back for a sequence.
    """
    sections = [s] if isinstance(s, PullbackSection) else list(s)
    _, out = metric_transition_batch(f, f, None, sections, m_from, m_to)
    return out[0] if isinstance(s, PullbackSection) else out


def metric_transition_fiber(
    f: SampledMap,
    s0: PullbackSection,
    m_from: TargetManifold,
    m_to: TargetManifold,
    step: float = 1e-4,
) -> list[np.ndarray]:
    """Nodewise fiber derivative matrices of the two-metric transition at s0.

    Matrices are expressed in the pointwise frames along f, one array per
    chart; computing them once lets several direction sections share the
    shooting work, and every chart shares one shooting batch.
    """
    mats, _ = metric_transition_batch(f, f, s0, [], m_from, m_to, step=step)
    return mats


def metric_transition_batch(
    f: SampledMap,
    g: SampledMap,
    s0: PullbackSection | None,
    sections: Sequence[PullbackSection],
    m_from: TargetManifold,
    m_to: TargetManifold,
    step: float = 1e-4,
) -> tuple[list[np.ndarray] | None, list[PullbackSection]]:
    """The fiber derivative matrices of v -> log_g(exp_f(v)) at s0 (None
    without s0) and the images of ``sections``, from one exp and one log batch.

    exp is taken at f's nodes in ``m_from`` and log at g's in ``m_to``: a
    change of metric passes g = f, a chart transition one metric.  The
    matrices map the frames of ``frames_at`` along f to those along g, and
    the images are sections along g.  The four ``fiber_probes`` around s0
    and the nodes of every section and chart are stacked into one batch.  A
    node's logarithm does not depend on its batch, so each result has the
    bits of a call of its own.  On the torus the matrices are the exact
    identity and need no probes.
    """
    given = [s0, *sections] if s0 is not None else sections
    if not all(maps_equal(t.base_map, f) for t in given):
        raise BaseMismatch("section is not based on the chart center")
    same_discretization(f, g)
    base, dst = _nodes(f.values), _nodes(g.values)
    blocks = [_nodes(t.vectors) for t in sections]
    probed = s0 is not None and m_from.kind != TORUS
    if probed:
        blocks = [*fiber_probes(m_from, base, _nodes(s0.vectors), step), *blocks]
    if blocks:
        moved = exp_points(m_from, np.concatenate([base] * len(blocks)), np.concatenate(blocks))
        logs = log_points(m_to, np.concatenate([dst] * len(blocks)), moved)
        blocks = np.split(logs, len(blocks))
    mats = None
    if probed:
        mats = _unstack(fiber_matrices(m_to, dst, np.stack(blocks[:4]), step), f.values)
        blocks = blocks[4:]
    elif s0 is not None:
        mats = _unstack(frames_at(m_from, base), f.values)  # torus frames are the identity
    return mats, [make_section(g, _unstack(part, g.values)) for part in blocks]


def _nodes(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The nodes of per-chart arrays of points or vectors, in one (n, amb) array."""
    return np.concatenate([a.reshape(-1, a.shape[-1]) for a in arrays])


def _unstack(flat: np.ndarray, like: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Split rows stacked by ``_nodes`` back into arrays over the grids of ``like``."""
    sizes = [math.prod(a.shape[:-1]) for a in like]
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return [p.reshape(a.shape[:-1] + p.shape[1:]) for p, a in zip(parts, like)]


def apply_fiber_matrices(
    f: SampledMap, g: SampledMap, mats: list[np.ndarray], s: PullbackSection
) -> PullbackSection:
    """Contract per-node fiber matrices with a section along f, giving one along g.

    The matrices map the pointwise frames along f to those along g.
    """
    m = f.target
    out = [
        apply_in_frames(mat, frames_at(m, fv), frames_at(m, gv), v)
        for fv, gv, mat, v in zip(f.values, g.values, mats, s.vectors)
    ]
    return make_section(g, out)


# ---------------------------------------------------------------------------
# composition operator on chart-local functions


@dataclass(frozen=True, eq=False)
class OmegaKernel:
    """Parametrized fiber map g(x, y) with its closed-form fiber derivative.

    The fiber derivative is required in closed form: the derivative identity
    under test is a statement about the exact fiber derivative, and a second
    numerical differentiation layer would drown it in noise.
    """

    base_interval: tuple[float, float]
    fiber_box: tuple[tuple[float, float], ...]
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fiber_derivative: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def check_fiber(self, values: np.ndarray) -> None:
        for a, (lo, hi) in enumerate(self.fiber_box):
            col = values[..., a]
            if np.any(col <= lo) or np.any(col >= hi):
                raise FiberBoxViolated("function values leave the open fiber box")


def omega_apply(kernel: OmegaKernel, f: GridFunction) -> GridFunction:
    """Composition operator: x -> g(x, f(x)) on the grid."""
    kernel.check_fiber(f.values)
    out = np.asarray(kernel.value(f.xs, f.values), dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    return GridFunction(f.lo, f.hi, out)


def omega_derivative(kernel: OmegaKernel, f: GridFunction, h: GridFunction) -> GridFunction:
    """Derivative of the composition operator at f, applied to h.

    Pointwise this is the fiber derivative of the kernel at (x, f(x))
    contracted with h(x).
    """
    if kernel.fiber_derivative is None:
        raise ValueError("kernel carries no closed-form fiber derivative")
    kernel.check_fiber(f.values)
    dmat = np.asarray(kernel.fiber_derivative(f.xs, f.values), dtype=float)
    if dmat.ndim == 1:
        dmat = dmat[:, None, None]
    out = np.einsum("nlm,nm->nl", dmat, h.values)
    return GridFunction(f.lo, f.hi, out)


# ---------------------------------------------------------------------------
# Taylor expansion with integral remainder

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_T = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


@dataclass(frozen=True, eq=False)
class TaylorData:
    """A function on an open convex box with closed-form derivative tensors.

    ``derivatives[i-1]`` returns the i-th derivative at a point as a tensor
    with i trailing axes of the domain dimension (plain floats in dimension
    one).  The admissibility predicate is the canonical thickening: both the
    point and its displaced endpoint lie in the box, so the whole segment
    does by convexity.
    """

    order: int
    box: tuple[tuple[float, float], ...]
    fn: Callable
    derivatives: tuple[Callable, ...]

    def __post_init__(self):
        if len(self.derivatives) < self.order:
            raise ValueError("need derivative callables up to the expansion order")

    def contains(self, u: np.ndarray) -> bool:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return all(lo < x < hi for x, (lo, hi) in zip(u, self.box))


def thickening_admissible(data: TaylorData, u, h) -> bool:
    u = np.atleast_1d(np.asarray(u, dtype=float))
    h = np.atleast_1d(np.asarray(h, dtype=float))
    return data.contains(u) and data.contains(u + h)


def _apply_form(form, h: np.ndarray, times: int):
    out = np.asarray(form, dtype=float)
    if times == 0:
        return out
    if out.ndim < times:
        # scalar coefficient of an i-form on a one-dimensional domain
        return out * h[0] ** times
    for _ in range(times):
        out = np.tensordot(out, h, axes=([-1], [0]))
    return out


def taylor_remainder(data: TaylorData, u, h):
    """Integral remainder of the degree-r expansion, applied to h^r.

    Computed by 32-node Gauss-Legendre quadrature of the difference of the
    r-th derivative along the segment, so that
    f(u+h) = f(u) + sum_i D^i f(u) h^i / i! + (this value).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if not thickening_admissible(data, u, h):
        raise ThickeningViolated("(u, h) is not admissible for the expansion")
    r = data.order
    d_r = data.derivatives[r - 1]
    base = np.asarray(d_r(u), dtype=float)
    acc = np.zeros_like(_apply_form(base, h, r), dtype=float)
    for t, w in zip(_GL_T, _GL_W):
        diff = np.asarray(d_r(u + t * h), dtype=float) - base
        weight = (1.0 - t) ** (r - 1) / math.factorial(r - 1)
        acc = acc + w * weight * _apply_form(diff, h, r)
    return acc if acc.shape else float(acc)


def taylor_identity_residual(data: TaylorData, u, h) -> float:
    """Residual of the expansion identity at (u, h); zero for exact data."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    h = np.atleast_1d(np.asarray(h, dtype=float))
    total = np.asarray(data.fn(u + h), dtype=float) - np.asarray(data.fn(u), dtype=float)
    for i in range(1, data.order + 1):
        form = np.asarray(data.derivatives[i - 1](u), dtype=float)
        total = total - _apply_form(form, h, i) / math.factorial(i)
    total = total - taylor_remainder(data, u, h)
    return float(np.max(np.abs(total)))

