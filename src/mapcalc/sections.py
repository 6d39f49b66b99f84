"""Grid-sampled sections of the pullback tangent bundle along a map.

A section stores one tangent vector per node of its base map, based at the
map's value there, in a node array laid out as the map's (see ``atlas``).
Sections are the local model of the mapping space: charts identify maps near
f with small sections along f.  Along a batch of maps a section is a batch
of sections, and its ``sup`` holds one value per trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .atlas import SampledMap
from .errors import BaseMismatch, FormulaOutOfTarget
from .finite_diff import holds, trial_sup
from .manifolds import norm_points, project_tangent, smooth_frames, to_frame


@dataclass(frozen=True, eq=False)
class PullbackSection:
    """Vectors along the base map, with the sup of their fiber norms.

    Whether the section is small enough to push through the exponential map
    is checked where that happens, against its ``sup``, so raw data like
    energy gradients can be carried as sections too.  ``sup`` is computed
    once here and must be finite; a section is a value, its vectors are not
    changed in place.  For a batch, ``sup`` is an array of one sup per trial.
    """

    base_map: SampledMap
    vectors: np.ndarray
    sup: float | np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sup = _sup_norm(self.base_map, self.vectors)
        if not holds(sup < np.inf):  # a NaN or infinite sup, in some trial
            i = np.flatnonzero(~(np.ravel(sup) < np.inf))[0]
            trial = f" in trial {i}" if self.base_map.trials is not None else ""
            raise ValueError(f"section sup {np.ravel(sup)[i]:g}{trial} is not finite")
        object.__setattr__(self, "sup", sup)


def maps_equal(f: SampledMap, g: SampledMap) -> bool:
    if f is g:
        return True
    if f.atlas.kind != g.atlas.kind or f.resolution != g.resolution:
        return False
    return np.array_equal(f.nodes, g.nodes)


def require_base(f: SampledMap, sections) -> None:
    """Every one of ``sections`` lies along ``f``."""
    if not all(maps_equal(t.base_map, f) for t in sections):
        raise BaseMismatch("section is not based on the same map")


def make_section(f: SampledMap, vectors) -> PullbackSection:
    vecs = project_tangent(f.target, f.nodes, np.asarray(vectors, dtype=float))
    return PullbackSection(f, vecs)


def section_from_formula(
    f: SampledMap,
    vector_fn: Callable[[np.ndarray], np.ndarray],
    sup_scale: float | None = None,
) -> PullbackSection:
    """Section from a closed-form vector field over the domain.

    The field is evaluated once, on the mesh of the map's ``layout``,
    projected to the tangent space at the map value, and optionally
    rescaled to a prescribed sup.  Along a batch of maps the field returns one vector per
    trial and node, and each trial is rescaled to ``sup_scale`` by its own
    sup.  Charts that reach a lattice point at the same index share its
    node, so their vectors there agree by storage; at indices one period
    apart a periodic field agrees only to rounding.
    """
    raw = np.asarray(vector_fn(f.layout.mesh), dtype=float)
    if raw.shape != f.nodes.shape:
        raise FormulaOutOfTarget(f"vector field returned shape {raw.shape}, not {f.nodes.shape}")
    vecs = project_tangent(f.target, f.nodes, raw)
    if sup_scale is not None:
        sup = np.asarray(_sup_norm(f, vecs))
        scale = np.divide(sup_scale, sup, out=np.ones_like(sup), where=sup > 0)
        vecs = vecs * scale.reshape(scale.shape + (1,) * (vecs.ndim - scale.ndim))
    return PullbackSection(f, vecs)


def _sup_norm(f: SampledMap, vectors: np.ndarray) -> float | np.ndarray:
    """Sup over all nodes of the fiber norm of a node array of vectors along
    f; for a batch, one sup per trial."""
    return trial_sup(norm_points(f.target, f.nodes, vectors), f.trials)


def section_sup(s: PullbackSection) -> float | np.ndarray:
    """Sup over all grid nodes of the fiber norm; for a batch, one sup per trial."""
    return s.sup


def section_add(s: PullbackSection, t: PullbackSection) -> PullbackSection:
    require_base(s.base_map, [t])
    return PullbackSection(s.base_map, s.vectors + t.vectors)


def section_scale(s: PullbackSection, a: float) -> PullbackSection:
    return PullbackSection(s.base_map, a * s.vectors)


def section_max_diff(s: PullbackSection, t: PullbackSection) -> float:
    """Sup fiber norm of the difference of two sections over the same map;
    for a batch, one sup per trial."""
    require_base(s.base_map, [t])
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
