"""Chart atlases on the compact domains and grid-sampled maps into the targets.

The circle carries two arc charts whose compact pieces are the closed half
circles; the 2-torus carries the four product charts.  Every chart comes
pre-enlarged, so finite differences at the boundary of a compact piece
never need one-sided stencils.

Grids live on a single angular lattice of spacing 2*pi/resolution per axis;
a chart's grid is the set of lattice nodes inside (the closure of) its
enlarged box, which gives loop samples uniform spacing.  Two charts that
reach a domain point at the same lattice index evaluate a formula at the
same coordinate and agree exactly there.  Where they reach it one period
apart (theta and theta + 2 pi), a periodic formula agrees only to rounding:
a random loop at resolution 64 differs by 7.4e-16 at such nodes, and the
great circle's ``overlap_residual`` is 6.9e-16.

A map's values are one node array (N, amb), chart after chart as laid out
by ``chart_layout``, which the pointwise layers (exp, log, sections,
transitions) take in one call; the grid layers (jets, covers, overlaps, the
CSV codec) read its per-chart views.  A leading trial axis, (T, N, amb),
holds a batch of T maps sampled together.  Layers that read grid axes take
one map and raise ``TrialAxisUnsupported`` on a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate, combinations
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
    box: tuple[tuple[float, float], ...]
    enlarged: tuple[tuple[float, float], ...]
    compact: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class DomainAtlas:
    kind: str
    charts: tuple[Chart, ...]

    @property
    def dim(self) -> int:
        return 1 if self.kind == CIRCLE else 2


_ARCS = (
    # (domain box, enlarged box, compact piece) per circle chart
    ((-0.25 * math.pi, 1.25 * math.pi), (-0.5 * math.pi, 1.5 * math.pi), (0.0, math.pi)),
    ((0.75 * math.pi, 2.25 * math.pi), (0.5 * math.pi, 2.5 * math.pi), (math.pi, TAU)),
)


def circle_atlas() -> DomainAtlas:
    charts = tuple(
        Chart(i, (box,), (enl,), (comp,)) for i, (box, enl, comp) in enumerate(_ARCS)
    )
    return DomainAtlas(CIRCLE, charts)


def torus2_atlas() -> DomainAtlas:
    charts = tuple(
        Chart(2 * a + b, (box_a, box_b), (enl_a, enl_b), (comp_a, comp_b))
        for a, (box_a, enl_a, comp_a) in enumerate(_ARCS)
        for b, (box_b, enl_b, comp_b) in enumerate(_ARCS)
    )
    return DomainAtlas(TORUS2, charts)


CIRCLE_ATLAS = circle_atlas()
TORUS2_ATLAS = torus2_atlas()


# ---------------------------------------------------------------------------
# lattice grids


def _axis_range(lo: float, hi: float, h: float) -> tuple[int, int]:
    j0 = math.ceil(lo / h - 1e-9)
    j1 = math.floor(hi / h + 1e-9)
    return j0, j1


def grid_ranges(chart: Chart, resolution: int) -> list[tuple[int, int]]:
    h = TAU / resolution
    return [_axis_range(lo, hi, h) for lo, hi in chart.enlarged]


def grid_coords(chart: Chart, resolution: int) -> list[np.ndarray]:
    h = TAU / resolution
    return [np.arange(j0, j1 + 1) * h for j0, j1 in grid_ranges(chart, resolution)]


def grid_mesh(chart: Chart, resolution: int) -> np.ndarray:
    """Chart coordinates of all grid nodes, shape (n0[, n1], dim)."""
    axes = grid_coords(chart, resolution)
    if len(axes) == 1:
        return axes[0][:, None]
    aa, bb = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.stack([aa, bb], axis=-1)


class ChartLayout(NamedTuple):
    """Where the chart grids sit in a map's node array, chart after chart and
    each grid in C order: ``starts`` holds each chart's first node and, last,
    the node count; ``mesh`` the chart coordinates of every node, (N, dim)."""

    shapes: tuple[tuple[int, ...], ...]
    starts: tuple[int, ...]
    mesh: np.ndarray


@lru_cache(maxsize=16)
def chart_layout(atlas: DomainAtlas, resolution: int) -> ChartLayout:
    """The layout of the node arrays of maps on ``atlas`` at ``resolution``.

    The layout is shared between callers, so its mesh is read-only.
    """
    meshes = [grid_mesh(chart, resolution) for chart in atlas.charts]
    shapes = tuple(m.shape[:-1] for m in meshes)
    starts = (0, *accumulate(math.prod(shape) for shape in shapes))
    mesh = np.concatenate([m.reshape(-1, atlas.dim) for m in meshes])
    mesh.flags.writeable = False
    return ChartLayout(shapes, starts, mesh)


def compact_slices(chart: Chart, resolution: int) -> tuple[slice, ...]:
    """Index slices selecting the compact-piece nodes inside the chart grid."""
    h = TAU / resolution
    out = []
    for (j0, _), (klo, khi) in zip(grid_ranges(chart, resolution), chart.compact):
        a0, a1 = _axis_range(klo, khi, h)
        out.append(slice(a0 - j0, a1 - j0 + 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# sampled maps


@dataclass(frozen=True, eq=False)
class SampledMap:
    """A map sampled at every chart grid node.

    ``nodes`` holds one value per node in the order of ``chart_layout``,
    shape (N, amb), or (T, N, amb) for a batch of T maps; ``values`` holds
    its per-chart views over the chart grids, built once.
    """

    atlas: DomainAtlas
    target: TargetManifold
    resolution: int
    nodes: np.ndarray
    values: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", self.views(self.nodes))

    def views(self, nodes: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-chart views over the chart grids of a node array (..., N, amb)
        along this map, such as its values or a section's vectors."""
        shapes, starts, _ = chart_layout(self.atlas, self.resolution)
        lead, amb = nodes.shape[:-2], nodes.shape[-1:]
        return tuple(nodes[..., a:b, :].reshape(lead + shape + amb)
                     for shape, a, b in zip(shapes, starts, starts[1:]))

    def with_nodes(self, nodes: np.ndarray) -> "SampledMap":
        return SampledMap(self.atlas, self.target, self.resolution, nodes)

    @property
    def trials(self) -> int | None:
        """The length of the leading trial axis of a batch of maps; None for one map."""
        return self.nodes.shape[0] if self.nodes.ndim == 3 else None


def require_single(f: SampledMap, layer: str) -> None:
    """Reject a batch of maps at a layer that reads the grid axes of one map."""
    if f.trials is not None:
        raise TrialAxisUnsupported(
            f"{layer} takes one map, not a batch of {f.trials} on a trial axis"
        )


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
    if raw.shape != lead + (layout.starts[-1], target.ambient_dim):
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
    ksl = compact_slices(f.atlas.charts[chart_id], f.resolution)
    anchor = tuple(s.start for s in ksl)
    shift = target_chart.rep(vals[anchor]) - lifted[anchor]
    return lifted[window] + shift


def check_containment(f: SampledMap, target_chart: TargetChart, chart_id: int) -> bool:
    ksl = compact_slices(f.atlas.charts[chart_id], f.resolution)
    return bool(np.all(target_chart.contains(f.values[chart_id][ksl])))


def piece_jets(f: SampledMap, chart_id: int, k: int, rep: Callable) -> Jets:
    """Partial derivatives up to order ``k``, at the compact-piece nodes of
    chart ``chart_id``, of the chart-local array ``rep(window)`` returns;
    ``window`` is the compact piece and its stencil margin only."""
    require_single(f, "compact-piece jets")
    ksl = compact_slices(f.atlas.charts[chart_id], f.resolution)
    outer, inner = stencil_window(ksl, k, f.values[chart_id].shape)
    return jets(rep(outer), inner, TAU / f.resolution, k)


def chart_jet(f: SampledMap, target_chart: TargetChart, chart_id: int, k: int) -> Jets:
    """Finite-difference partial derivatives of the chart representative.

    Entries hold every multi-index up to total order ``k``, evaluated at the
    grid nodes of the compact piece.  Values over the compact piece must lie
    inside the target chart; the surrounding stencil nodes only need the
    representative, which both chart kinds provide smoothly.
    """
    require_single(f, "chart_jet")
    if not check_containment(f, target_chart, chart_id):
        raise TargetChartViolated(
            f"values on the compact piece of chart {chart_id} leave the target chart"
        )
    return piece_jets(f, chart_id, k, partial(chart_rep, f, target_chart, chart_id))


# ---------------------------------------------------------------------------
# overlap consistency


def _axis_matches(r_i: tuple[int, int], r_j: tuple[int, int], resolution: int):
    ji = np.arange(r_i[0], r_i[1] + 1)
    pairs = []
    for t in (-resolution, 0, resolution):
        mask = (ji + t >= r_j[0]) & (ji + t <= r_j[1])
        if np.any(mask):
            pairs.append((np.nonzero(mask)[0], ji[mask] + t - r_j[0]))
    return pairs


def shared_nodes(atlas: DomainAtlas, resolution: int, ci: int, cj: int):
    """Index pairs of lattice nodes present in both charts' grids."""
    ri = grid_ranges(atlas.charts[ci], resolution)
    rj = grid_ranges(atlas.charts[cj], resolution)
    per_axis = [_axis_matches(ra, rb, resolution) for ra, rb in zip(ri, rj)]
    if any(not p for p in per_axis):
        return []
    out = []
    if len(per_axis) == 1:
        for idx_i, idx_j in per_axis[0]:
            out.append(((idx_i,), (idx_j,)))
    else:
        for ia, ja in per_axis[0]:
            for ib, jb in per_axis[1]:
                mi = np.meshgrid(ia, ib, indexing="ij")
                mj = np.meshgrid(ja, jb, indexing="ij")
                out.append(((mi[0].ravel(), mi[1].ravel()), (mj[0].ravel(), mj[1].ravel())))
    return out


def overlap_residual(f: SampledMap) -> float:
    """Max target distance between the charts' values at shared lattice nodes."""
    require_single(f, "overlap_residual")
    return sup(
        np.max(dist_points(f.target, f.values[ci][idx_i], f.values[cj][idx_j]))
        for ci, cj in combinations(range(len(f.atlas.charts)), 2)
        for idx_i, idx_j in shared_nodes(f.atlas, f.resolution, ci, cj)
    )

