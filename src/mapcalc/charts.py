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
import weakref
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .atlas import SampledMap, map_sup_distance, same_discretization
from .errors import (
    FiberBoxViolated,
    ThickeningViolated,
    WellDefinednessViolated,
)
from .finite_diff import holds, sup
from .gridfn import GridFunction
from .manifolds import (
    TORUS,
    TargetManifold,
    exp_points,
    fiber_matrices,
    fiber_probes,
    frames_at,
    from_frame,
    inj_radius,
    log_dist_points,
    log_points,
    require_log_reach,
    to_frame,
)
from .sections import PullbackSection, make_section, require_base


def default_delta(f: SampledMap, factor: float = 0.4) -> float:
    """Default chart bound along f: a 1/6 margin of the injectivity radius."""
    return factor * inj_radius(f.target) / 6.0


# the frames of each map still alive, keyed by the map: maps are immutable and
# hash by identity, and an entry goes with its map
_FRAMES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _map_frames(f: SampledMap) -> np.ndarray:
    """Read-only ``frames_at`` of every node of ``f``, computed once per map.

    The frames are Euclidean-orthonormal, so they belong to the nodes and not
    to a metric: the round and conformal spheres of one radius share them.
    """
    frames = _FRAMES.get(f)
    if frames is None:
        frames = frames_at(f.target, f.nodes)
        frames.flags.writeable = False
        _FRAMES[f] = frames
    return frames


# ---------------------------------------------------------------------------
# charts and transitions


def chart_forward(f: SampledMap, g: SampledMap, delta: float) -> PullbackSection:
    """Represent g in the chart centered at f: nodewise logarithm along f.

    One logarithm over every node gives both the gap to g and the section; a gap
    at or over ``delta`` is reported before any pair beyond the injectivity
    radius.
    """
    if not delta < inj_radius(f.target):
        raise WellDefinednessViolated("delta must stay below the injectivity radius")
    same_discretization(f, g)
    vecs, d = log_dist_points(f.target, f.nodes, g.nodes)
    gap = sup([np.max(d)])
    if not gap < delta:
        raise WellDefinednessViolated(
            f"maps are {gap:.6g} apart, not within the chart bound {delta:.6g}"
        )
    require_log_reach(f.target, d)
    return PullbackSection(f, vecs)


def chart_inverse(f: SampledMap, s: PullbackSection) -> SampledMap:
    """Leave the chart at f: nodewise exponential of the section."""
    require_base(f, [s])
    if not holds(s.sup * (1 + 1e-12) < inj_radius(f.target)):
        raise WellDefinednessViolated(
            "section is too large to push through the exponential map"
        )
    return f.with_nodes(exp_points(f.target, f.nodes, s.vectors))


def transition(f: SampledMap, g: SampledMap, s: PullbackSection) -> PullbackSection:
    """Re-center a section from the chart at f to the chart at g: the
    one-metric ``metric_transition_batch``, inside ``_require_margin``."""
    _require_margin(f, g, s.sup, [s])
    return metric_transition_batch(f, g, None, [s], f.target, f.target)[1][0]


def transition_derivative(
    f: SampledMap, g: SampledMap, s0: PullbackSection, s: PullbackSection
) -> PullbackSection:
    """Derivative of the chart transition at s0, applied to s, nodewise.

    Acts through the fiber derivative of v -> log_g(exp_f(v)) at s0, by
    central differences of step 1e-6; on the flat torus this is exactly the
    identity on vectors.
    """
    _require_margin(f, g, s0.sup + 2e-6, [s0, s])  # the probes reach 2e-6 past s0
    m = f.target
    mats, _ = metric_transition_batch(f, g, s0, [], m, m, step=1e-6)
    return apply_fiber_matrices(f, g, mats, s)


def _require_margin(f: SampledMap, g: SampledMap, reach: float | np.ndarray, sections) -> None:
    """The sections lie along f, and ``reach``, a bound on the vectors sent
    through exp_f, plus the distance between the centers stays below the
    injectivity radius: by the triangle inequality every exp_f(v) is then in
    the logarithm's reach at g.  The requirement is symmetric in the charts.
    For batches it holds per trial, with that trial's reach and distance."""
    require_base(f, sections)
    budget = reach + map_sup_distance(f, g)
    if not holds(budget < inj_radius(g.target)):
        raise WellDefinednessViolated(
            f"section sup plus center distance {np.max(budget):.6g} exceeds the chart margin"
        )


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
) -> np.ndarray:
    """Nodewise fiber derivative matrices of the two-metric transition at s0.

    Matrices are expressed in the pointwise frames along f, one per node;
    computing them once lets several direction sections share the shooting
    work, and every node shares one shooting batch.
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
) -> tuple[np.ndarray | None, list[PullbackSection]]:
    """The fiber derivative matrices of v -> log_g(exp_f(v)) at s0 (None
    without s0) and the images of ``sections``, from one exp and one log batch.

    exp is taken at f's nodes in ``m_from`` and log at g's in ``m_to``: a
    change of metric passes g = f, a chart transition one metric.  The
    matrices map the frames of ``_map_frames`` along f to those along g, and
    the images are sections along g.  The four ``fiber_probes`` around s0
    and the node arrays of every section are stacked into one batch.  A
    node's logarithm does not depend on its batch, so each result has the
    bits of a call of its own.  On the torus the matrices are the exact
    identity and need no probes.
    """
    require_base(f, [s0, *sections] if s0 is not None else sections)
    same_discretization(f, g)
    blocks = [t.vectors for t in sections]
    probed = s0 is not None and m_from.kind != TORUS
    if probed:
        blocks = [*fiber_probes(_map_frames(f), s0.vectors, step), *blocks]
    if blocks:
        moved = exp_points(m_from, np.concatenate([f.nodes] * len(blocks)), np.concatenate(blocks))
        logs = log_points(m_to, np.concatenate([g.nodes] * len(blocks)), moved)
        blocks = np.split(logs, len(blocks))
    mats = None
    if probed:
        mats = fiber_matrices(_map_frames(g), np.stack(blocks[:4]), step)
        blocks = blocks[4:]
    elif s0 is not None:
        mats = _map_frames(f)  # torus frames are the identity
    return mats, [make_section(g, part) for part in blocks]


def apply_fiber_matrices(
    f: SampledMap, g: SampledMap, mats: np.ndarray, s: PullbackSection
) -> PullbackSection:
    """Contract per-node fiber matrices with a section along f, giving one along g.

    The matrices map the pointwise frames along f to those along g.
    """
    w = np.einsum("...ab,...b->...a", mats, to_frame(_map_frames(f), s.vectors))
    return make_section(g, from_frame(_map_frames(g), w))


# ---------------------------------------------------------------------------
# composition operator on chart-local functions


@dataclass(frozen=True, eq=False)
class OmegaKernel:
    """Parametrized fiber map g(x, y) with its closed-form fiber derivative.

    The fiber derivative is required in closed form: the derivative identity
    under test is a statement about the exact fiber derivative, and a second
    numerical differentiation layer would drown it in noise.
    """

    fiber_box: tuple[tuple[float, float], ...]
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fiber_derivative: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def check_fiber(self, values: np.ndarray) -> None:
        for a, (lo, hi) in enumerate(self.fiber_box):
            col = values[..., a]
            if np.any(col <= lo) or np.any(col >= hi):
                raise FiberBoxViolated("function values leave the open fiber box")


def omega_apply(kernel: OmegaKernel, f: GridFunction) -> GridFunction:
    """Composition operator: x -> g(x, f(x)) on the grid."""
    kernel.check_fiber(f.values)
    return GridFunction(f.lo, f.hi, np.asarray(kernel.value(f.xs, f.values), dtype=float))


def omega_derivative(kernel: OmegaKernel, f: GridFunction, h: GridFunction) -> GridFunction:
    """Derivative of the composition operator at f, applied to h.

    Pointwise this is the fiber derivative of the kernel at (x, f(x))
    contracted with h(x).
    """
    kernel.check_fiber(f.values)
    dmat = np.asarray(kernel.fiber_derivative(f.xs, f.values), dtype=float)
    out = np.einsum("nlm,nm->nl", dmat, h.values)
    return GridFunction(f.lo, f.hi, out)


# ---------------------------------------------------------------------------
# Taylor expansion with integral remainder

@cache
def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 32 nodes and weights of Gauss-Legendre quadrature on [0, 1].

    Built on first use, not at import: the rule loads ``numpy.polynomial``
    and LAPACK, about 1.7 MB of memory that only the Taylor layer needs.
    """
    nodes, weights = np.polynomial.legendre.leggauss(32)
    return 0.5 * (nodes + 1.0), 0.5 * weights


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
    for t, w in zip(*_gauss_legendre_rule()):
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

