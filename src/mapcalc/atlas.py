"""Chart atlases on the compact domains and grid-sampled maps into the targets.

The circle carries two arc charts whose compact pieces are the closed half
circles; the 2-torus carries the four product charts.  Every chart comes
pre-enlarged, so finite differences at the boundary of a compact piece
never need one-sided stencils.

Grids live on a single angular lattice of spacing 2*pi/resolution per axis,
and ``chart_layout`` is the one code that rounds chart boxes to its
indices: a chart's grid is the set of lattice nodes inside (the closure of)
its enlarged box, which gives loop samples uniform spacing, and its compact
piece is a window into that grid.  Two charts that reach a domain point at
the same lattice index share its node, so they agree there by storage.
Where they reach it one period apart (theta and theta + 2 pi), the two
copies are nodes of their own, and a periodic formula agrees only to
rounding: a random loop at resolution 64 differs by 7.4e-16 at such nodes,
and ``overlap_residual``, which compares every node with its copies one
period away, is 6.9e-16 on the great circle.

A map's values are one node array (N, amb), one node per lattice point of
the box the chart grids span, as laid out by ``chart_layout``; the
pointwise layers (exp, log, sections, transitions) take it in one call, and
the grid layers (jets, covers, overlaps, the CSV codec) read its per-chart
views, each a window into that box.  A leading trial axis, (T, N, amb),
holds a batch of T maps sampled together.  Layers that read grid axes take
one map and raise ``TrialAxisUnsupported`` on a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    FormulaOutOfTarget,
    ResolutionMismatch,
    TargetChartViolated,
    TrialAxisUnsupported,
)
from .finite_diff import Jets, jets, stencil_window, sup, trial_sup
from .manifolds import (
    SPHERE,
    TargetManifold,
    dist_points,
    norm,
    reduce_points,
)
from .target_charts import SphereCapChart, TargetChart, lift_grid

TAU = 2.0 * math.pi

CIRCLE = "circle"
TORUS2 = "torus2"


@dataclass(frozen=True)
class Chart:
    id: int
    enlarged: tuple[tuple[float, float], ...]
    compact: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class DomainAtlas:
    """The charts of a compact domain.

    Atlases key the layout and lattice caches, so the hash of the charts is
    taken once, at construction; equality stays structural.
    """

    kind: str
    charts: tuple[Chart, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.charts))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return 1 if self.kind == CIRCLE else 2


_ARCS = (
    # (enlarged box, compact piece) per circle chart
    ((-0.5 * math.pi, 1.5 * math.pi), (0.0, math.pi)),
    ((0.5 * math.pi, 2.5 * math.pi), (math.pi, TAU)),
)


def circle_atlas() -> DomainAtlas:
    charts = tuple(Chart(i, (enl,), (comp,)) for i, (enl, comp) in enumerate(_ARCS))
    return DomainAtlas(CIRCLE, charts)


def torus2_atlas() -> DomainAtlas:
    charts = tuple(
        Chart(2 * a + b, (enl_a, enl_b), (comp_a, comp_b))
        for a, (enl_a, comp_a) in enumerate(_ARCS)
        for b, (enl_b, comp_b) in enumerate(_ARCS)
    )
    return DomainAtlas(TORUS2, charts)


CIRCLE_ATLAS = circle_atlas()
TORUS2_ATLAS = torus2_atlas()


# ---------------------------------------------------------------------------
# lattice grids


class ChartLayout(NamedTuple):
    """Where the chart grids sit in a map's node array: one node per lattice
    point of the box the grids span, of shape ``box``, in C order, whose
    first node sits at lattice index ``lo``.  Each chart's grid is a window
    into that box, one slice per axis in ``windows``, and its compact piece
    a window into that grid, in ``compact``; ``mesh`` holds the chart
    coordinates of every node, (N, dim).
    """

    box: tuple[int, ...]
    lo: tuple[int, ...]
    windows: tuple[tuple[slice, ...], ...]
    compact: tuple[tuple[slice, ...], ...]
    mesh: np.ndarray

    def chart_nodes(self, chart_id: int) -> np.ndarray:
        """The node index of every grid node of a chart, in its grid's shape."""
        return np.arange(len(self.mesh)).reshape(self.box)[self.windows[chart_id]]


@lru_cache(maxsize=16)
def chart_layout(atlas: DomainAtlas, resolution: int) -> ChartLayout:
    """The layout of the node arrays of maps on ``atlas`` at ``resolution``,
    the one place where chart boxes meet the lattice.

    A chart's grid holds the lattice nodes in the closure of its enlarged
    box.  Charts that reach a lattice point at the same index share its
    node; a point one period away is a node of its own.  The layout is
    shared between callers, so its mesh is read-only.
    """
    h = TAU / resolution

    def indices(box):  # the first and last lattice index in each closed interval
        return [(math.ceil(lo / h - 1e-9), math.floor(hi / h + 1e-9)) for lo, hi in box]

    grids = [indices(chart.enlarged) for chart in atlas.charts]
    lo = tuple(min(g[a][0] for g in grids) for a in range(atlas.dim))
    hi = tuple(max(g[a][1] for g in grids) for a in range(atlas.dim))
    windows = tuple(tuple(slice(j0 - a, j1 - a + 1) for (j0, j1), a in zip(g, lo)) for g in grids)
    compact = tuple(
        tuple(slice(k0 - j0, k1 - j0 + 1) for (k0, k1), (j0, _) in zip(indices(chart.compact), g))
        for chart, g in zip(atlas.charts, grids)
    )
    axes = np.meshgrid(*(np.arange(a, b + 1) * h for a, b in zip(lo, hi)), indexing="ij")
    mesh = np.stack(axes, axis=-1).reshape(-1, atlas.dim)
    mesh.flags.writeable = False
    return ChartLayout(tuple(b - a + 1 for a, b in zip(lo, hi)), lo, windows, compact, mesh)


# ---------------------------------------------------------------------------
# sampled maps


@dataclass(frozen=True, eq=False)
class SampledMap:
    """A map sampled at every chart grid node.

    ``nodes`` holds one value per node in the order of ``chart_layout``,
    shape (N, amb), or (T, N, amb) for a batch of T maps.
    """

    atlas: DomainAtlas
    target: TargetManifold
    resolution: int
    nodes: np.ndarray

    @cached_property
    def values(self) -> tuple[np.ndarray, ...]:
        """The per-chart views of one map's nodes, built on first read; the
        grid layers read them, so they refuse a batch here."""
        if self.trials is not None:
            raise TrialAxisUnsupported(f"the grid layers take one map, not a batch of {self.trials}")
        return self.views(self.nodes)

    @property
    def layout(self) -> ChartLayout:
        return chart_layout(self.atlas, self.resolution)

    def views(self, nodes: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-chart views over the chart grids of a node array (..., N, amb)
        along this map, such as its values or a section's vectors."""
        layout = self.layout
        lead, amb = nodes.shape[:-2], nodes.shape[-1:]
        lattice = nodes.reshape(lead + layout.box + amb)
        return tuple(lattice[(..., *window, slice(None))] for window in layout.windows)

    def with_nodes(self, nodes: np.ndarray) -> "SampledMap":
        return SampledMap(self.atlas, self.target, self.resolution, nodes)

    @property
    def trials(self) -> int | None:
        """The length of the leading trial axis of a batch of maps; None for one map."""
        return self.nodes.shape[0] if self.nodes.ndim == 3 else None


@dataclass(frozen=True)
class MapFormula:
    """A closed-form map; with ``trials`` set, a batch of that many maps whose
    values carry a leading trial axis."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    trials: int | None = None


def sample_map(
    atlas: DomainAtlas, target: TargetManifold, formula: MapFormula, resolution: int
) -> SampledMap:
    """Evaluate a closed-form map, or a batch of them, at every chart grid
    node of the enlarged boxes, in one call on the layout's mesh."""
    if resolution < 8:
        raise ValueError("resolution must be at least 8")
    layout = chart_layout(atlas, resolution)
    lead = () if formula.trials is None else (formula.trials,)
    raw = np.asarray(formula.fn(layout.mesh), dtype=float)
    if raw.shape != lead + (len(layout.mesh), target.ambient_dim):
        raise FormulaOutOfTarget(
            f"formula {formula.name!r} returned shape {raw.shape}"
        )
    if not np.all(np.isfinite(raw)):
        raise FormulaOutOfTarget(f"formula {formula.name!r} produced non-finite values")
    if target.kind == SPHERE:
        err = np.max(np.abs(norm(raw) - target.radius))
        if err > 1e-9:
            raise FormulaOutOfTarget(
                f"formula {formula.name!r} leaves the sphere by {err:g}"
            )
    return SampledMap(atlas, target, resolution, reduce_points(target, raw))


def same_discretization(f: SampledMap, g: SampledMap) -> None:
    if f.atlas.kind != g.atlas.kind or f.resolution != g.resolution:
        raise ResolutionMismatch("maps live on different atlases or resolutions")
    if f.target.kind != g.target.kind or f.target.ambient_dim != g.target.ambient_dim:
        raise ResolutionMismatch("maps have different targets")
    if f.trials != g.trials:
        raise ResolutionMismatch("maps hold different trial axes")


def map_sup_distance(f: SampledMap, g: SampledMap) -> float | np.ndarray:
    """Sup over all grid nodes of the target distance between two maps; one
    sup per trial for batches."""
    same_discretization(f, g)
    return trial_sup(dist_points(f.target, f.nodes, g.nodes), f.trials)


# ---------------------------------------------------------------------------
# chart-local jets


def chart_rep(
    f: SampledMap, target_chart: TargetChart, chart_id: int, window: tuple[slice, ...]
) -> np.ndarray:
    """Smooth chart representative of the values over the chart-grid ``window``.

    Torus values are lifted to the universal cover and anchored so the
    representative agrees with the branch representative on the compact
    piece; sphere values go through the cap chart's global formula.
    """
    vals = f.values[chart_id]
    if isinstance(target_chart, SphereCapChart):
        return target_chart.rep(vals[window])
    # the lift runs over the whole grid: the unwrap's running correction
    # depends on where it starts, so a lift of the window alone could move bits
    lifted = lift_grid(vals, target_chart.periods)
    anchor = tuple(s.start for s in f.layout.compact[chart_id])
    shift = target_chart.rep(vals[anchor]) - lifted[anchor]
    return lifted[window] + shift


def check_containment(f: SampledMap, target_chart: TargetChart, chart_id: int) -> bool:
    ksl = f.layout.compact[chart_id]
    return bool(np.all(target_chart.contains(f.values[chart_id][ksl])))


def piece_jets(f: SampledMap, chart_id: int, k: int, rep: Callable) -> Jets:
    """Partial derivatives up to order ``k``, at the compact-piece nodes of
    chart ``chart_id``, of the chart-local array ``rep(window)`` returns;
    ``window`` is the compact piece and its stencil margin only."""
    outer, inner = stencil_window(f.layout.compact[chart_id], k, f.values[chart_id].shape)
    return jets(rep(outer), inner, TAU / f.resolution, k)


def chart_jet(f: SampledMap, target_chart: TargetChart, chart_id: int, k: int) -> Jets:
    """Finite-difference partial derivatives of the chart representative.

    Entries hold every multi-index up to total order ``k``, evaluated at the
    grid nodes of the compact piece.  Values over the compact piece must lie
    inside the target chart; the surrounding stencil nodes only need the
    representative, which both chart kinds provide smoothly.
    """
    if not check_containment(f, target_chart, chart_id):
        raise TargetChartViolated(
            f"values on the compact piece of chart {chart_id} leave the target chart"
        )
    return piece_jets(f, chart_id, k, partial(chart_rep, f, target_chart, chart_id))


# ---------------------------------------------------------------------------
# overlap consistency


def overlap_residual(f: SampledMap) -> float:
    """Max target distance between the copies of a domain point one period
    apart: the box nodes whose lattice indices differ by the resolution
    along one axis or more.  Copies at one index share a node."""
    if f.trials is not None:
        raise TrialAxisUnsupported(f"overlap_residual takes one map, not a batch of {f.trials}")
    box, n = f.layout.box, f.resolution
    lattice = f.nodes.reshape(box + f.nodes.shape[-1:])
    sups = []
    for shift in product((-n, 0, n), repeat=len(box)):
        if shift > (0,) * len(box):  # one of each pair of opposite shifts
            here = tuple(slice(max(0, -s), b - max(0, s)) for s, b in zip(shift, box))
            there = tuple(slice(max(0, s), b - max(0, -s)) for s, b in zip(shift, box))
            sups.append(np.max(dist_points(f.target, lattice[here], lattice[there])))
    return sup(sups)
