"""Grid-sampled sections of the pullback tangent bundle along a map.

A section stores one tangent vector per node of its base map, based at the
map's value there, in a node array laid out as the map's (see ``atlas``).
Sections are the local model of the mapping space: charts identify maps near
f with small sections along f.  Along a batch of maps a section is a batch
of sections, and its ``sup`` and ``bound`` hold one value per trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .atlas import SampledMap, chart_layout
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
    in place.  A ``bound`` of None becomes the tightest bound above the
    sup.  For a batch, ``sup`` is an array of one sup per trial, and
    ``bound`` a float or such an array; each trial's sup stays below its
    own bound.
    """

    base_map: SampledMap
    vectors: np.ndarray
    bound: float | np.ndarray | None
    sup: float | np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sup = _sup_norm(self.base_map, self.vectors)
        if self.bound is None:
            object.__setattr__(self, "bound", _as_bound(sup * (1.0 + 1e-9) + 1e-300))
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
    return np.array_equal(f.nodes, g.nodes)


def require_same_base(s: PullbackSection, t: PullbackSection | SampledMap) -> None:
    other = t.base_map if isinstance(t, PullbackSection) else t
    if not maps_equal(s.base_map, other):
        raise BaseMismatch("sections are not based on the same map")


def make_section(f: SampledMap, vectors, bound: float | None = None) -> PullbackSection:
    vecs = project_tangent(f.target, f.nodes, np.asarray(vectors, dtype=float))
    return PullbackSection(f, vecs, None if bound is None else _as_bound(bound))


def _as_bound(bound) -> float | np.ndarray:
    """A bound as a float, or as an array of one bound per trial."""
    return bound if isinstance(bound, np.ndarray) else float(bound)


def section_from_formula(
    f: SampledMap,
    vector_fn: Callable[[np.ndarray], np.ndarray],
    sup_scale: float | None = None,
    bound: float | None = None,
) -> PullbackSection:
    """Section from a closed-form vector field over the domain.

    The field is evaluated once, on the mesh of ``chart_layout``, projected
    to the tangent space at the map value, and optionally rescaled to a
    prescribed sup.  Along a batch of maps the field returns one vector per
    trial and node, and each trial is rescaled to ``sup_scale`` by its own
    sup.  Charts that reach a node at the same lattice index evaluate the
    field at the same coordinate, so their vectors there agree exactly; at
    indices one period apart a periodic field agrees only to rounding.
    """
    raw = np.asarray(vector_fn(chart_layout(f.atlas, f.resolution).mesh), dtype=float)
    if raw.shape != f.nodes.shape:
        raise FormulaOutOfTarget(f"vector field returned shape {raw.shape}, not {f.nodes.shape}")
    vecs = project_tangent(f.target, f.nodes, raw)
    if sup_scale is not None:
        sup = np.asarray(_sup_norm(f, vecs))
        scale = np.divide(sup_scale, sup, out=np.ones_like(sup), where=sup > 0)
        vecs = vecs * scale.reshape(scale.shape + (1,) * (vecs.ndim - scale.ndim))
    return make_section(f, vecs, bound=bound)


def _sup_norm(f: SampledMap, vectors: np.ndarray) -> float | np.ndarray:
    """Sup over all nodes of the fiber norm of a node array of vectors along
    f; for a batch, one sup per trial."""
    return trial_sup(norm_points(f.target, f.nodes, vectors), f.trials)


def section_sup(s: PullbackSection) -> float | np.ndarray:
    """Sup over all grid nodes of the fiber norm; for a batch, one sup per trial."""
    return s.sup


def section_add(s: PullbackSection, t: PullbackSection) -> PullbackSection:
    require_same_base(s, t)
    return PullbackSection(s.base_map, s.vectors + t.vectors, s.bound + t.bound)


def section_scale(s: PullbackSection, a: float) -> PullbackSection:
    bound = abs(a) * s.bound + 1e-300
    return PullbackSection(s.base_map, a * s.vectors, bound)


def section_max_diff(s: PullbackSection, t: PullbackSection) -> float:
    """Sup fiber norm of the difference of two sections over the same map;
    for a batch, one sup per trial."""
    require_same_base(s, t)
    return _sup_norm(s.base_map, s.vectors - t.vectors)


def section_rep(s: PullbackSection, chart_id: int, window: tuple[slice, ...]) -> np.ndarray:
    """Components of the section in a smooth orthonormal frame field, over
    the chart-grid ``window``.

    The frame field along the base values is built per chart, mirroring how
    bundle trivializations are chosen per chart piece: its reference axis
    comes from the whole chart grid, so the components at a node do not
    depend on the window.
    """
    f = s.base_map
    frames = smooth_frames(f.target, f.values[chart_id], window)
    return to_frame(frames, f.views(s.vectors)[chart_id][window])
