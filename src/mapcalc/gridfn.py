"""Chart-local functions on a closed interval, with finite-difference jets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .finite_diff import Jets, jet_sup_diff, jets, stencil_radius


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Vector-valued function sampled on a uniform grid over [lo, hi].

    Derivative sups are taken over the interior window where the central
    stencils fit, which plays the role of the compact evaluation set.
    """

    lo: float
    hi: float
    values: np.ndarray  # shape (n, m)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @classmethod
    def sample(cls, fn: Callable, lo: float, hi: float, n: int) -> "GridFunction":
        xs = np.linspace(lo, hi, n)
        vals = np.asarray(fn(xs), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        return cls(lo, hi, vals)

    def map_values(self, fn: Callable) -> "GridFunction":
        return GridFunction(self.lo, self.hi, np.asarray(fn(self.values), dtype=float))


def same_grid(a: GridFunction, b: GridFunction) -> None:
    if a.n != b.n or a.lo != b.lo or a.hi != b.hi or a.m != b.m:
        raise ValueError("grid functions live on different grids or value spaces")


def grid_jets(a: GridFunction, k: int) -> Jets:
    """Jets up to order ``k`` over the interior window where the stencils fit."""
    pad = stencil_radius(k)
    return jets(a.values, (slice(pad, a.n - pad),), a.h, k)


def grid_jet_sup_diff(a: GridFunction, b: GridFunction, k: int) -> float:
    """C^k-style sup of the jet difference over the interior window."""
    same_grid(a, b)
    return jet_sup_diff(grid_jets(a, k), grid_jets(b, k))

