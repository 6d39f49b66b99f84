"""Grid-sampled sections of the pullback tangent bundle along a map.

A section stores one tangent vector per chart grid node, based at the map's
value there.  Sections are the local model of the mapping space: charts
identify maps near f with small sections along f.  Along a batch of maps
(a leading trial axis, see ``atlas``) a section is a batch of sections, and
its ``sup`` and ``bound`` hold one value per trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .atlas import SampledMap, grid_mesh
from .errors import BaseMismatch, FormulaOutOfTarget
from .finite_diff import holds, trial_sup
from .manifolds import norm_points, project_tangent, smooth_frames, to_frame


@dataclass(frozen=True, eq=False)
class PullbackSection:
    """Vectors along the base map, with the bound governing chart use.

    ``bound`` strictly dominates the sup of the fiber norms.  Whether it is
    also small enough to push the section through the exponential map is
    checked where that happens, so raw data like energy gradients can be
    carried as sections too.  ``sup``, the sup of the fiber norms, is
    computed once here; a section is a value, its vectors are not changed
    in place.  For a batch, ``sup`` is an array of one sup per trial, and
    ``bound`` a float or such an array; each trial's sup stays below its
    own bound.
    """

    base_map: SampledMap
    vectors: tuple[np.ndarray, ...]
    bound: float | np.ndarray
    sup: float | np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sup = _sup_norm(self.base_map, self.vectors)
        if not holds(sup < self.bound):
            sups, bounds = np.broadcast_arrays(sup, self.bound)
            i = np.flatnonzero(~(sups < bounds))[0]  # the first trial over its bound
            raise ValueError(
                f"section sup {sups.flat[i]:g} must stay strictly below bound {bounds.flat[i]:g}"
            )
        object.__setattr__(self, "sup", sup)


def maps_equal(f: SampledMap, g: SampledMap) -> bool:
    if f is g:
        return True
    if f.atlas.kind != g.atlas.kind or f.resolution != g.resolution:
        return False
    return all(np.array_equal(a, b) for a, b in zip(f.values, g.values))


def require_same_base(s: PullbackSection, t: PullbackSection | SampledMap) -> None:
    other = t.base_map if isinstance(t, PullbackSection) else t
    if not maps_equal(s.base_map, other):
        raise BaseMismatch("sections are not based on the same map")


def make_section(f: SampledMap, vectors, bound: float | None = None) -> PullbackSection:
    vecs = tuple(
        project_tangent(f.target, fv, np.asarray(v, dtype=float))
        for fv, v in zip(f.values, vectors)
    )
    if bound is None:
        bound = _sup_norm(f, vecs) * (1.0 + 1e-9) + 1e-300
    return PullbackSection(f, vecs, bound if isinstance(bound, np.ndarray) else float(bound))


def zero_section(f: SampledMap) -> PullbackSection:
    vecs = [np.zeros_like(v) for v in f.values]
    return make_section(f, vecs, bound=1e-300)


def section_from_formula(
    f: SampledMap,
    vector_fn: Callable[[np.ndarray], np.ndarray],
    sup_scale: float | None = None,
    bound: float | None = None,
) -> PullbackSection:
    """Section from a closed-form vector field over the domain.

    The field is evaluated at domain coordinates, projected to the tangent
    space at the map value, and optionally rescaled to a prescribed sup.
    Along a batch of maps the field returns one vector per trial and node,
    and each trial is rescaled to ``sup_scale`` by its own sup.  Charts that
    reach a node at the same lattice index evaluate the field at the same
    coordinate, so their vectors there agree exactly; at indices one period
    apart a periodic field agrees only to rounding.
    """
    vecs = []
    for chart, fv in zip(f.atlas.charts, f.values):
        mesh = grid_mesh(chart, f.resolution)
        raw = np.asarray(vector_fn(mesh), dtype=float)
        if raw.shape != fv.shape:
            raise FormulaOutOfTarget(f"vector field returned shape {raw.shape}, not {fv.shape}")
        vecs.append(project_tangent(f.target, fv, raw))
    if sup_scale is not None:
        sup = np.asarray(_sup_norm(f, vecs))
        scale = np.divide(sup_scale, sup, out=np.ones_like(sup), where=sup > 0)
        vecs = [v * scale.reshape(scale.shape + (1,) * (v.ndim - scale.ndim)) for v in vecs]
    return make_section(f, vecs, bound=bound)


def _sup_norm(f: SampledMap, vectors) -> float | np.ndarray:
    """Sup over all grid nodes of the fiber norm of per-chart vectors along
    f; for a batch, one sup per trial."""
    return trial_sup((norm_points(f.target, fv, v) for fv, v in zip(f.values, vectors)), f.trials)


def section_sup(s: PullbackSection) -> float | np.ndarray:
    """Sup over all grid nodes of the fiber norm; for a batch, one sup per trial."""
    return s.sup


def section_add(s: PullbackSection, t: PullbackSection) -> PullbackSection:
    require_same_base(s, t)
    vecs = [a + b for a, b in zip(s.vectors, t.vectors)]
    return PullbackSection(s.base_map, tuple(vecs), s.bound + t.bound)


def section_scale(s: PullbackSection, a: float) -> PullbackSection:
    vecs = [a * v for v in s.vectors]
    bound = abs(a) * s.bound + 1e-300
    return PullbackSection(s.base_map, tuple(vecs), bound)


def section_max_diff(s: PullbackSection, t: PullbackSection) -> float:
    """Sup fiber norm of the difference of two sections over the same map;
    for a batch, one sup per trial."""
    require_same_base(s, t)
    return _sup_norm(s.base_map, (a - b for a, b in zip(s.vectors, t.vectors)))


def section_rep(s: PullbackSection, chart_id: int, window: tuple[slice, ...]) -> np.ndarray:
    """Components of the section in a smooth orthonormal frame field, over
    the chart-grid ``window``.

    The frame field along the base values is built per chart, mirroring how
    bundle trivializations are chosen per chart piece: its reference axis
    comes from the whole chart grid, so the components at a node do not
    depend on the window.
    """
    fv = s.base_map.values[chart_id]
    frames = smooth_frames(s.base_map.target, fv, window)
    return to_frame(frames, s.vectors[chart_id][window])
