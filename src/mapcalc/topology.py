"""Compact-open C^k neighborhoods, the C^k distance, and section norms.

Membership in a neighborhood controls all chart-local partial derivatives
up to order k uniformly on the compact pieces, together with containment
of the values in the target charts.  The distance is defined relative to a
fixed chart cover of the center; it generates the topology near that map
but is not a global metric on the mapping space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .atlas import (
    SampledMap,
    chart_jet,
    piece_jets,
    same_discretization,
)
from .errors import HypothesisViolated, TargetChartViolated
from .finite_diff import Jets, jet_sup, jet_sup_diff, sup
from .gridfn import GridFunction, grid_jets, same_grid
from .sections import PullbackSection, section_rep
from .target_charts import TargetChart, auto_chart

# one target chart per domain chart, containing the center's values
CkCover = tuple[TargetChart, ...]


def canonical_cover(f: SampledMap) -> CkCover:
    return tuple(
        auto_chart(f.target, vals[piece]) for vals, piece in zip(f.values, f.layout.compact)
    )


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
            cid: chart_jet(self.center, self.cover[cid], cid, self.order)
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
        tchart = nbhd.cover[cid]
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
    return [chart_jet(f, cover[c.id], c.id, k) for c in f.atlas.charts]


def jets_distance(jf: list[Jets], jg: list[Jets]) -> float:
    """``ck_distance`` from two maps' ``cover_jets`` under the same cover and order."""
    return sup(jet_sup_diff(a, b) for a, b in zip(jf, jg, strict=True))


# ---------------------------------------------------------------------------
# C^k norm on sections


def section_norm(s: PullbackSection, k: int) -> float:
    """C^k norm of a section through per-chart orthonormal trivializations:
    the sup over charts, multi-indices and compact-piece nodes of the norms
    of the trivialized derivatives."""
    f = s.base_map
    return sup(
        jet_sup(piece_jets(f, chart.id, k, partial(section_rep, s, chart.id)))
        for chart in f.atlas.charts
    )


# ---------------------------------------------------------------------------
# composition estimate probe


def _composition_ratios(psi, f1, samples, R, k, box, skip_far):
    """Each sample's jet distance to f1 and composition ratio, from one set of
    jets per function; a sample farther than R from f1 is skipped if
    ``skip_far`` and rejected if not, one within 1e-14 of f1 gives no ratio."""
    j1 = grid_jets(f1, k)
    j_psi1 = grid_jets(f1.map_values(psi), k)
    for f2 in samples:
        same_grid(f1, f2)
        base = jet_sup_diff(j1, grid_jets(f2, k))
        if base > R + 1e-12:
            if skip_far:
                continue
            raise HypothesisViolated(
                f"sample jet distance {base:g} exceeds the allowed radius {R:g}"
            )
        if box is not None:
            for a, (lo, hi) in enumerate(box):
                col = f2.values[..., a]
                if np.any(col < lo) or np.any(col > hi):
                    raise HypothesisViolated("sample leaves the compact value box")
        if base < 1e-14:
            continue
        ratio = jet_sup_diff(j_psi1, grid_jets(f2.map_values(psi), k)) / base
        if not np.isfinite(ratio):
            raise HypothesisViolated("composition ratio is not finite")
        yield base, ratio


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
    return sup(ratio for _, ratio in _composition_ratios(psi, f1, samples, R, k, box, False))


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
    admissible sets are nested, so the witnesses are non-decreasing.  One
    pass over the samples serves every radius.
    """
    radii = sorted(ladder)
    ratios = list(_composition_ratios(
        psi, f1, samples, max(radii, default=-np.inf), k, box, True
    ))
    return [sup(ratio for base, ratio in ratios if base <= R + 1e-12) for R in radii]
