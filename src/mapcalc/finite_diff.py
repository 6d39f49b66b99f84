"""Central finite-difference stencils of fourth-order accuracy."""

from __future__ import annotations

from itertools import product

import numpy as np

from .manifolds import norm

# partial derivatives by multi-index, each over the nodes of a window
Jets = dict[tuple[int, ...], np.ndarray]

# offsets are symmetric around 0; radius 2 up to second order, 3 above
_STENCILS = {
    1: (2, np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0),
    2: (2, np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0),
    3: (3, np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0),
    4: (3, np.array([-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0]) / 6.0),
}


def stencil(order: int) -> tuple[int, np.ndarray]:
    if order not in _STENCILS:
        raise ValueError(f"no central stencil for derivative order {order}")
    return _STENCILS[order]


def stencil_radius(order: int) -> int:
    return 0 if order == 0 else stencil(order)[0]


def diff_axis(values: np.ndarray, order: int, h: float, axis: int) -> np.ndarray:
    """Differentiate along ``axis``; output shrinks by the stencil radius per side."""
    if order == 0:
        return values
    radius, coeffs = stencil(order)
    n = values.shape[axis]
    if n < 2 * radius + 1:
        raise ValueError("grid too small for the requested stencil")
    out_len = n - 2 * radius
    out = np.zeros(values.shape[:axis] + (out_len,) + values.shape[axis + 1 :])
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        sl = [slice(None)] * values.ndim
        sl[axis] = slice(k, k + out_len)
        out += c * values[tuple(sl)]
    return out / h**order


def diff_multi(values: np.ndarray, alpha: tuple[int, ...], h: float) -> tuple[np.ndarray, tuple[int, ...]]:
    """Apply a multi-index of axis derivatives to a grid array.

    ``values`` has one leading axis per grid dimension plus a trailing
    component axis.  Returns the differentiated array and the per-axis
    offset of its first node relative to the input grid.
    """
    out = values
    offsets = []
    for axis, order in enumerate(alpha):
        out = diff_axis(out, order, h, axis)
        offsets.append(stencil_radius(order))
    return out, tuple(offsets)


def multi_indices(dim: int, k: int) -> list[tuple[int, ...]]:
    """All multi-indices of total order at most k, ordered by (|alpha|, alpha)."""
    alphas = [a for a in product(range(k + 1), repeat=dim) if sum(a) <= k]
    alphas.sort(key=lambda a: (sum(a), a))
    return alphas


def stencil_window(
    window: tuple[slice, ...], k: int, shape: tuple[int, ...]
) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """``window`` widened by the order-``k`` stencil radius on every grid axis,
    and ``window`` itself in the coordinates of that widened window.

    Raises ``ValueError`` when a grid of ``shape`` leaves less than that margin.
    """
    pad = stencil_radius(k)
    outer, inner = [], []
    for s, n in zip(window, shape):
        if s.start < pad or s.stop + pad > n:
            raise ValueError(f"grid too coarse for order-{k} stencils")
        outer.append(slice(s.start - pad, s.stop + pad))
        inner.append(slice(pad, pad + s.stop - s.start))
    return tuple(outer), tuple(inner)


def jets(values: np.ndarray, window: tuple[slice, ...], h: float, k: int) -> Jets:
    """Partial derivatives of a grid array at the nodes of ``window``.

    Fourth-order central differences for every multi-index up to total order
    ``k``; ``window`` holds one slice per grid axis and must leave room for
    the stencils on every side.  Only the window and that margin are
    differentiated; each entry is the same stencil sum over the same values.
    """
    values = values[stencil_window(window, k, values.shape)[0]]
    pad = stencil_radius(k)
    entries: Jets = {}
    for alpha in multi_indices(len(window), k):
        darr, offsets = diff_multi(values, alpha, h)
        entries[alpha] = darr[
            tuple(slice(pad - o, pad - o + s.stop - s.start) for s, o in zip(window, offsets))
        ]
    return entries


def sup(values) -> float:
    """Largest of ``values``, 0.0 for none; NaN when any is NaN, which Python's
    ``max`` drops once it holds a number.  Every sup over pieces, charts and
    trials, and every residual clamped at zero, folds through here."""
    return float(np.max(list(values), initial=0.0))


def trial_sup(a: np.ndarray, trials: int | None):
    """``sup`` over every node of a node array; for an array with a leading
    trial axis of length ``trials``, one such sup per trial, as an array in
    which a trial with a NaN node, and only that trial, reads NaN."""
    if trials is None:
        return sup([np.max(a)])
    return np.max(a.reshape(trials, -1), axis=1, initial=0.0)


def holds(test) -> bool:
    """Whether a comparison of floats, or of arrays of one value per trial,
    holds in every trial; a plain bool is taken as it is, at no numpy cost."""
    return test if isinstance(test, bool) else bool(test.all())


def jet_sup(j: Jets) -> float:
    """Sup over multi-indices and nodes of the norm of the jet entries."""
    return sup(np.max(norm(entry)) for entry in j.values())


def jet_sup_diff(a: Jets, b: Jets) -> float:
    """Sup over multi-indices and nodes of the norm of the jet difference."""
    return jet_sup({alpha: ea - b[alpha] for alpha, ea in a.items()})
