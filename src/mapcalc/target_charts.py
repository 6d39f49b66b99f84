"""Charts of the target manifolds used to trivialize map values.

Torus values are read in a branch box of the universal cover; sphere values
are read through stereographic projection from the antipode of a cap
center.  Both give smooth chart representatives wherever the containment
condition holds, which is what grid finite differences need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TargetChartViolated
from .manifolds import SPHERE, TORUS, TargetManifold, dot, frames_at, mod_periods


@dataclass(frozen=True, eq=False)
class TorusBranchChart:
    lo: np.ndarray
    widths: np.ndarray
    periods: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.periods)

    def _rel(self, values: np.ndarray, a: int) -> np.ndarray:
        """Axis ``a`` of the values, reduced into [0, period) above ``lo``."""
        return mod_periods(values[..., a] - self.lo[a], self.periods[a])

    def contains(self, values: np.ndarray) -> np.ndarray:
        inside = self._rel(values, 0) < self.widths[0]
        for a in range(1, self.dim):
            inside &= self._rel(values, a) < self.widths[a]
        return inside

    def rep(self, values: np.ndarray) -> np.ndarray:
        """Representative in [lo, lo + period); in-branch for contained values."""
        return np.stack([self.lo[a] + self._rel(values, a) for a in range(self.dim)], axis=-1)


@dataclass(frozen=True, eq=False)
class SphereCapChart:
    center: np.ndarray  # unit direction
    cap_angle: float
    radius: float
    # the tangent frame at the cap center, which ``rep`` reads its coordinates in
    legs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "legs", frames_at(
            TargetManifold(SPHERE, radius=self.radius), self.radius * self.center
        ))

    def contains(self, values: np.ndarray) -> np.ndarray:
        cosang = np.clip(dot(values, self.center) / self.radius, -1.0, 1.0)
        return np.arccos(cosang) < self.cap_angle

    def rep(self, values: np.ndarray) -> np.ndarray:
        """Stereographic coordinates from the antipode of the cap center.

        The denominator is clamped near the projection pole; affected nodes
        lie far outside any compact piece whose containment check passed,
        beyond the reach of the derivative stencils.
        """
        r = self.radius
        dots = dot(values, self.center)[..., None]
        tang = values - dots * self.center
        u = 2.0 * r * tang / np.maximum(r + dots, 0.02 * r)
        return np.stack([dot(u, self.legs[a]) for a in range(2)], axis=-1)


TargetChart = TorusBranchChart | SphereCapChart


def lift_grid(values: np.ndarray, periods) -> np.ndarray:
    """Continuous lift of torus-valued grid data to the universal cover.

    ``values`` has one or two leading grid axes and the torus components
    last.  Columns are unwrapped along the first axis; for 2-d grids the
    per-column constants are then fixed by unwrapping the first row.
    Assumes the sampled map varies by less than half a period per grid step.
    """
    values = np.asarray(values, dtype=float)
    periods = np.asarray(periods, dtype=float)
    grid_ndim = values.ndim - 1
    out = np.empty_like(values)
    for a, period in enumerate(periods):
        comp = values[..., a]
        lifted = unwrap(comp, period)
        if grid_ndim == 2:
            row0 = unwrap(lifted[0, :], period)
            lifted = lifted + (row0 - lifted[0, :])[None, :]
        out[..., a] = lifted
    return out


def unwrap(p: np.ndarray, period: float) -> np.ndarray:
    """``np.unwrap(p, period=period, axis=0)`` for float data, step for step.

    Grid steps are small, so almost no difference needs a true reduction,
    and only the steps that can jump are reduced at all: a handful of
    entries, which ``np.mod`` reduces faster than ``mod_periods`` does.
    """
    dd = p[1:] - p[:-1]
    high = period / 2
    # only a step of at least half a period, or NaN, needs a correction
    jump = ~(abs(dd) < high)
    correct = np.zeros_like(dd)
    d = dd[jump]
    dmod = np.mod(d + high, period) - high
    # a step of exactly half a period keeps its sign
    dmod[(dmod == -high) & (d > 0)] = high
    correct[jump] = dmod - d
    up = np.array(p, dtype=float)
    up[1:] = p[1:] + correct.cumsum(axis=0)
    return up


def auto_chart(m: TargetManifold, values: np.ndarray) -> TargetChart:
    """Smallest-with-margin target chart containing the given grid of values.

    The margin is a quarter of the slack left by the values, so nearby maps
    stay inside the same chart.  Raises when no single chart can hold the
    values (a torus branch must be narrower than the period, a cap must stay
    away from a full hemisphere's antipode).
    """
    values = np.asarray(values, dtype=float)
    if m.kind == TORUS:
        periods = np.asarray(m.periods)
        lifted = lift_grid(values, periods)
        lo = np.empty(len(periods))
        widths = np.empty(len(periods))
        for a, period in enumerate(periods):
            comp = lifted[..., a]
            span = float(np.max(comp) - np.min(comp))
            if span >= period - 1e-9:
                raise TargetChartViolated(
                    f"values span {span:.4g} of a period-{period:.4g} axis, no branch holds them"
                )
            margin = 0.25 * (period - span)
            lo[a] = float(np.min(comp)) - margin
            widths[a] = span + 2 * margin
        return TorusBranchChart(lo, widths, periods)
    flat = values.reshape(-1, values.shape[-1])
    center = flat.mean(axis=0)
    nrm = np.linalg.norm(center)
    if nrm < 1e-9 * m.radius:
        raise TargetChartViolated("values have no well-defined cap center")
    center = center / nrm
    cosang = np.clip(flat @ center / m.radius, -1.0, 1.0)
    span = float(np.max(np.arccos(cosang)))
    if span >= np.pi - 1e-6:
        raise TargetChartViolated("values nearly fill the sphere, no cap holds them")
    cap = span + 0.25 * (np.pi - span)
    return SphereCapChart(center, cap, m.radius)
