"""Compact-open C^k neighborhoods, the C^k distance, and section norms.

Membership in a neighborhood controls all chart-local partial derivatives
up to order k uniformly on the compact pieces, together with containment
of the values in the target charts.  The distance is defined relative to a
fixed chart cover of the center; it generates the topology near that map
but is not a global metric on the mapping space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atlas import (
    TAU,
    SampledMap,
    chart_jet,
    compact_slices,
    same_discretization,
)
from .errors import HypothesisViolated, TargetChartViolated
from .finite_diff import Jets, jet_sup_diff, jets, stencil_window
from .gridfn import GridFunction, grid_jet_sup_diff
from .manifolds import norm
from .sections import PullbackSection, section_rep
from .target_charts import TargetChart, auto_chart


@dataclass(frozen=True, eq=False)
class CkCover:
    """One target chart per domain chart, containing the center's values."""

    target_charts: tuple[TargetChart, ...]


def canonical_cover(f: SampledMap) -> CkCover:
    charts = []
    for chart in f.atlas.charts:
        ksl = compact_slices(chart, f.resolution)
        charts.append(auto_chart(f.target, f.values[chart.id][ksl]))
    return CkCover(tuple(charts))


@dataclass(frozen=True, eq=False)
class CkNeighborhood:
    """A finite intersection of subbasis neighborhoods around a center map.

    The center's jets are computed once per chart, when the neighborhood is
    built; ``chart_jet`` raises ``TargetChartViolated`` when the center
    leaves its own target chart.
    """

    center: SampledMap
    cover: CkCover
    chart_ids: tuple[int, ...]
    epsilon: float
    order: int
    center_jets: dict[int, Jets] = field(init=False, repr=False)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "center_jets", {
            cid: chart_jet(self.center, self.cover.target_charts[cid], cid, self.order)
            for cid in self.chart_ids
        })


def neighborhood(
    center: SampledMap,
    epsilon: float,
    order: int,
    chart_ids: tuple[int, ...] | None = None,
    cover: CkCover | None = None,
) -> CkNeighborhood:
    if cover is None:
        cover = canonical_cover(center)
    if chart_ids is None:
        chart_ids = tuple(c.id for c in center.atlas.charts)
    return CkNeighborhood(center, cover, tuple(chart_ids), float(epsilon), int(order))


def nbhd_contains(nbhd: CkNeighborhood, g: SampledMap) -> bool:
    """Strict membership test; containment failures mean non-membership."""
    same_discretization(nbhd.center, g)
    for cid in nbhd.chart_ids:
        tchart = nbhd.cover.target_charts[cid]
        try:
            jg = chart_jet(g, tchart, cid, nbhd.order)
        except TargetChartViolated:
            return False
        if not jet_sup_diff(nbhd.center_jets[cid], jg) < nbhd.epsilon:
            return False
    return True


def ck_distance(f: SampledMap, g: SampledMap, k: int, cover: CkCover | None = None) -> float:
    """Max jet difference over the fixed cover; ``chart_jet`` raises
    ``TargetChartViolated`` when f or g leaves it.

    With a shared cover this is a pseudometric: symmetric by construction
    and triangle-bounded node by node.  A caller that measures one map
    against several others can take ``cover_jets`` once per map and compare
    them with ``jets_distance``, which gives the same value.
    """
    same_discretization(f, g)
    if cover is None:
        cover = canonical_cover(f)
    return jets_distance(cover_jets(f, cover, k), cover_jets(g, cover, k))


def cover_jets(f: SampledMap, cover: CkCover, k: int) -> list[Jets]:
    """``f``'s chart jets up to order ``k`` in the cover's target charts, one per domain chart."""
    return [chart_jet(f, cover.target_charts[c.id], c.id, k) for c in f.atlas.charts]


def jets_distance(jf: list[Jets], jg: list[Jets]) -> float:
    """``ck_distance`` from two maps' ``cover_jets`` under the same cover and order;
    NaN when a jet difference holds a NaN."""
    return float(np.max([jet_sup_diff(a, b) for a, b in zip(jf, jg, strict=True)], initial=0.0))


# ---------------------------------------------------------------------------
# C^k norm on sections


@dataclass(frozen=True, eq=False)
class SectionNormReport:
    """Per chart and multi-index sups of the trivialized derivatives."""

    entries: dict[tuple[int, tuple[int, ...]], float]
    total: float

    def __post_init__(self):
        if any(v < 0 for v in self.entries.values()):
            raise ValueError("norm entries must be nonnegative")
        expected = max(self.entries.values(), default=0.0)
        if abs(self.total - expected) > 0.0:
            raise ValueError("total must be the max over entries")


def section_norm(s: PullbackSection, k: int) -> SectionNormReport:
    """C^k norm of a section through per-chart orthonormal trivializations."""
    f = s.base_map
    entries: dict[tuple[int, tuple[int, ...]], float] = {}
    for chart in f.atlas.charts:
        window = compact_slices(chart, f.resolution)
        # the representative is needed on the compact piece and its stencil margin only
        outer, inner = stencil_window(window, k, f.values[chart.id].shape)
        block_jets = jets(section_rep(s, chart.id, outer), inner, TAU / f.resolution, k)
        for alpha, block in block_jets.items():
            entries[(chart.id, alpha)] = float(np.max(norm(block)))
    total = max(entries.values(), default=0.0)
    return SectionNormReport(entries, total)


# ---------------------------------------------------------------------------
# composition estimate probe


def composition_bound_probe(
    psi,
    f1: GridFunction,
    samples: list[GridFunction],
    R: float,
    k: int,
    box: tuple[tuple[float, float], ...] | None = None,
) -> float:
    """Empirical constant of the post-composition estimate.

    For each admissible sample f2, the ratio of the jet difference of the
    compositions psi(f1), psi(f2) to the jet difference of f1, f2 is
    computed; the maximum is the empirical constant for this radius R.
    Samples must stay inside the value box and within jet distance R of f1.
    """
    psi_f1 = f1.map_values(psi)
    worst = 0.0
    for f2 in samples:
        if box is not None:
            for a, (lo, hi) in enumerate(box):
                col = f2.values[..., a]
                if np.any(col < lo) or np.any(col > hi):
                    raise HypothesisViolated("sample leaves the compact value box")
        base = grid_jet_sup_diff(f1, f2, k)
        if base > R + 1e-12:
            raise HypothesisViolated(
                f"sample jet distance {base:g} exceeds the allowed radius {R:g}"
            )
        if base < 1e-14:
            continue
        comp = grid_jet_sup_diff(psi_f1, f2.map_values(psi), k)
        ratio = comp / base
        if not np.isfinite(ratio):
            raise HypothesisViolated("composition ratio is not finite")
        worst = max(worst, ratio)
    return worst


def witness_ladder(
    psi,
    f1: GridFunction,
    samples: list[GridFunction],
    ladder: tuple[float, ...],
    k: int,
    box: tuple[tuple[float, float], ...],
) -> list[float]:
    """Empirical constants along a growing radius ladder.

    Each radius admits the samples within that jet distance of f1; the
    admissible sets are nested, so the witnesses are non-decreasing.
    """
    out = []
    for R in sorted(ladder):
        admissible = [f2 for f2 in samples if grid_jet_sup_diff(f1, f2, k) <= R + 1e-12]
        out.append(composition_bound_probe(psi, f1, admissible, R, k, box=box))
    return out
