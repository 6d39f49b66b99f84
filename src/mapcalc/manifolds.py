"""Closed-form Riemannian geometry of the target manifolds.

Two targets are supported: the round sphere of any radius in R^3 and the
flat torus R^n modulo a rectangular period lattice.  Both have closed-form
exponential and logarithm maps, so every finite-difference probe in the
rest of the package can be cross-checked analytically.  A sphere may carry
an optional conformal rescaling of the round metric; its geodesics are then
integrated numerically and the logarithm is recovered by shooting.

All operations are pure functions on stacked coordinate arrays with the
point dimension last (suffix ``_points``), so one call serves a single point
or a whole grid.
"""

from __future__ import annotations

import ast
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from types import CodeType
from typing import Optional

import numpy as np

from .errors import BeyondInjectivityRadius, WellDefinednessViolated

SPHERE = "sphere"
TORUS = "torus"

# Euclidean-orthonormality and membership tolerance for stored geometry.
POINT_TOL = 1e-12

_EXPR_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
# the node types of the conformal grammar; names, calls and constants are narrowed below
_EXPR_NODES = (ast.Expression, ast.Load, ast.Name, ast.Call, ast.Constant, ast.BinOp,
               ast.UnaryOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)


def _compile_expr(expr: str) -> CodeType:
    """Compile a conformal expression; anything outside its grammar raises ``ValueError``.

    An ``eval`` with empty builtins is no sandbox, since attribute chains
    still reach ``object``.  Integer constants become floats, so ``9**9**9``
    overflows at once instead of building an integer with millions of digits.
    """
    try:
        tree = ast.parse(expr, mode="eval")
        for node in ast.walk(tree):
            if not isinstance(node, _EXPR_NODES) or (
                isinstance(node, ast.Name) and node.id not in {"x", "y", "z", "pi", *_EXPR_FUNCS}
                or isinstance(node, ast.Call) and getattr(node.func, "id", "") not in _EXPR_FUNCS
                or isinstance(node, ast.Constant) and type(node.value) not in (int, float)
            ):
                raise ValueError(f"{type(node).__name__} is outside the conformal grammar")
            if isinstance(node, ast.Constant):
                node.value = float(node.value)
    except (SyntaxError, OverflowError, TypeError) as err:
        raise ValueError(f"bad conformal expression {expr!r}: {err}") from err
    return compile(tree, "<conformal>", "eval")


class _Dual:
    """Values with their ambient gradients, for forward-mode differentiation
    of the conformal grammar.

    ``v`` holds values of shape S and ``d`` their gradients, shape S + (3,).
    Each operation computes ``v`` exactly as on plain arrays, so a factor's
    value is the same bits on either.  Constants stay plain floats.
    """

    __slots__ = ("v", "d")

    def __init__(self, v: np.ndarray, d: np.ndarray):
        self.v, self.d = v, d

    @property
    def shape(self) -> tuple[int, ...]:
        return self.v.shape

    def __getitem__(self, key: tuple) -> "_Dual":
        # the key indexes the value axes; the gradient axis stays last
        return _Dual(self.v[key], self.d[(*key, slice(None))])

    def _chain(self, v: np.ndarray, slope: np.ndarray) -> "_Dual":
        """``v`` = g(self) for a function g with derivative ``slope`` at self."""
        return _Dual(v, slope[..., None] * self.d)

    # IEEE addition and multiplication commute and a - b is exactly a + (-b),
    # so the reflected and subtracting forms keep the bits of plain arrays
    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v + o.v, self.d + o.d)
        return _Dual(self.v + o, self.d)

    __radd__ = __add__

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v * o.v, self.d * o.v[..., None] + o.d * self.v[..., None])
        return _Dual(self.v * o, self.d * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, _Dual):
            q = self.v / o.v
            return _Dual(q, (self.d - q[..., None] * o.d) / o.v[..., None])
        return _Dual(self.v / o, self.d / o)

    def __rtruediv__(self, o):
        q = o / self.v
        return self._chain(q, -q / self.v)

    def __pow__(self, o):
        if isinstance(o, _Dual):
            val = self.v**o.v
            d = (o.v * self.v ** (o.v - 1.0))[..., None] * self.d
            # the exponent's term vanishes where the exponent does not vary,
            # also at a base <= 0, whose logarithm is not real
            with np.errstate(divide="ignore", invalid="ignore"):
                grow = (val * np.log(self.v))[..., None] * o.d
            return _Dual(val, d + np.where(o.d == 0.0, 0.0, grow))
        return self._chain(self.v**o, o * self.v ** (o - 1.0))

    def __rpow__(self, o):
        val = o**self.v
        # a base of 0 gives 0 (or inf) for every exponent, and a negative base nan
        return self._chain(val, val * (math.log(o) if o > 0 else 0.0))

    def __neg__(self):
        return _Dual(-self.v, -self.d)

    def __pos__(self):
        return self


def _dual_function(fn, slope):
    """Extend a function of the grammar to ``_Dual``; ``slope(a, fn(a))`` is fn'(a)."""

    def extended(a):
        if not isinstance(a, _Dual):
            return fn(a)
        val = fn(a.v)
        return a._chain(val, slope(a.v, val))

    return extended


_DUAL_FUNCS = {
    name: _dual_function(_EXPR_FUNCS[name], slope)
    for name, slope in {
        "sin": lambda a, v: np.cos(a),
        "cos": lambda a, v: -np.sin(a),
        "tan": lambda a, v: 1.0 + v * v,
        "exp": lambda a, v: v,
        "log": lambda a, v: 1.0 / a,
        "sqrt": lambda a, v: 0.5 / v,
        "abs": lambda a, v: np.sign(a),
    }.items()
}


@dataclass(frozen=True)
class ConformalFactor:
    """Strictly positive scalar field on the sphere, given as an expression.

    The expression uses ambient coordinates ``x, y, z`` and the usual
    elementary functions.  Its ambient gradient is exact: the same compiled
    expression runs once on dual numbers (forward-mode differentiation).
    Only the tangential part of the gradient enters the geodesic equation,
    so the (arbitrary) ambient extension does not matter.
    """

    expr: str
    code: CodeType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "code", _compile_expr(self.expr))
        # x, y and z are arrays, so only the float constants can raise or
        # turn complex (a negative base to a fractional power), at any point
        try:
            with np.errstate(all="ignore"):
                val = self._eval(np.zeros((1, 3)))
        except ArithmeticError as err:
            raise ValueError(f"bad conformal expression {self.expr!r}: {err}") from err
        if np.iscomplexobj(val):
            raise ValueError(f"bad conformal expression {self.expr!r}: complex value")

    def _eval(self, coords):
        ns = dict(_DUAL_FUNCS, pi=np.pi, x=coords[..., 0], y=coords[..., 1], z=coords[..., 2])
        return eval(self.code, {"__builtins__": {}}, ns)  # grammar checked by _compile_expr

    def __call__(self, coords):
        """The factor at ``coords``; at dual coordinates, a ``_Dual`` with its gradient."""
        val = self._eval(coords)
        if isinstance(val, _Dual):
            return val
        # an expression without coordinates, or plain coordinates
        val = np.asarray(val, dtype=float) * np.ones(coords.shape[:-1])
        return _Dual(val, np.zeros(val.shape + (3,))) if isinstance(coords, _Dual) else val

    def value_and_gradient(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The factor and its exact ambient gradient at ``coords``, from one evaluation.

        Where a coordinate's gradient passes through unchanged (``z``,
        ``2 + z``), the gradient is a read-only view of the shared seeds.
        """
        out = self(_Dual(coords, _identity_seeds(coords.shape)))
        return out.v, out.d


@functools.lru_cache(maxsize=4)
def _identity_seeds(shape: tuple[int, ...]) -> np.ndarray:
    """Read-only dual seeds for coordinates of ``shape``: the identity per node.

    They are component-major, so each gradient column is one contiguous
    block.  A geodesic flow evaluates the factor four times per step on one
    batch size, so the seeds are built once per size instead of per call;
    being read-only, a cached array cannot be written into by mistake.
    """
    seeds = np.zeros(shape + (3,), order="F")
    seeds[..., (0, 1, 2), (0, 1, 2)] = 1.0
    seeds.flags.writeable = False
    return seeds


@dataclass(frozen=True)
class TargetManifold:
    """Round sphere S^2 or flat torus, with an optional conformal metric."""

    kind: str
    radius: float = 1.0
    periods: tuple[float, ...] = ()
    conformal: Optional[ConformalFactor] = None

    def __post_init__(self):
        if self.kind == SPHERE:
            if self.radius <= 0:
                raise ValueError("sphere radius must be positive")
            if self.conformal is not None:
                with np.errstate(all="ignore"):  # an overflow is caught as non-finite
                    vals = self.conformal(_conformal_probe_points(self))
                if not np.all((vals > 0) & np.isfinite(vals)):
                    raise ValueError("conformal factor must be finite and strictly positive")
        elif self.kind == TORUS:
            if not self.periods or any(p <= 0 for p in self.periods):
                raise ValueError("torus periods must be positive")
            if self.conformal is not None:
                raise ValueError("conformal factors are supported on the sphere only")
        else:
            raise ValueError(f"unknown manifold kind {self.kind!r}")

    @property
    def ambient_dim(self) -> int:
        return 3 if self.kind == SPHERE else len(self.periods)

    def to_json(self) -> str:
        if self.kind == SPHERE:
            obj = {"kind": "sphere", "radius": self.radius}
            if self.conformal is not None:
                obj["conformal"] = self.conformal.expr
        else:
            obj = {"kind": "torus", "periods": list(self.periods)}
        return json.dumps(obj, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "TargetManifold":
        """Parse ``to_json`` text; a malformed description raises ``ValueError``."""
        obj = json.loads(text)
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind == SPHERE:
            conf = obj.get("conformal")
            return sphere(finite_number(obj.get("radius"), "sphere radius"), conformal=conf)
        if kind == TORUS and isinstance(obj.get("periods"), list):
            return flat_torus(*(finite_number(p, "torus period") for p in obj["periods"]))
        raise ValueError(f"not a sphere or torus target: {text}")


def finite_number(x, what: str) -> float:
    """``x`` as a float when it is a finite JSON number, else ``ValueError``."""
    # the comparison is exact for ints, and false for NaN and infinities
    if isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max:
        return float(x)
    raise ValueError(f"{what} must be a finite number, not {x!r}")


def sphere(radius: float = 1.0, conformal: str | ConformalFactor | None = None) -> TargetManifold:
    if conformal is not None and not isinstance(conformal, ConformalFactor):
        conformal = ConformalFactor(conformal)
    return TargetManifold(SPHERE, radius=radius, conformal=conformal)


def flat_torus(*periods: float) -> TargetManifold:
    return TargetManifold(TORUS, periods=tuple(float(p) for p in periods))


# ---------------------------------------------------------------------------
# pointwise inner products


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product over the last axis, with the bits of ``np.sum(a * b, axis=-1)``.

    The components are added left to right as whole arrays, one loop over
    the nodes each, instead of a length-2 or length-3 reduction per node.
    ``np.sum`` starts from +0.0 (and is left to right below 8 terms), so the
    leading ``0.0 +`` keeps signed zeros, infinities and NaNs the same too.
    """
    return _last_axis_sum(a * b)


def _last_axis_sum(p: np.ndarray) -> np.ndarray:
    """``np.sum(p, axis=-1)`` with its bits, for the short last axes of points."""
    out = 0.0 + p[..., 0]
    for i in range(1, p.shape[-1]):
        out += p[..., i]
    return out


def norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, with the bits of ``np.linalg.norm(x, axis=-1)``."""
    return np.sqrt(dot(x, x))


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis, with the bits of ``np.cross(a, b)`` for 3-vectors.

    Each component is one product minus another, in ``np.cross``'s order,
    computed on whole component columns and written into its column of the
    result; ``a`` and ``b`` broadcast as there.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)))
    np.subtract(a1 * b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out


def mod_periods(x: np.ndarray, periods) -> np.ndarray:
    """``np.mod(x, periods)`` with the same bits, for a period per last axis
    entry or one common period.

    Only entries outside ``[0, period)`` go through ``np.mod``; the others
    come back as ``x + 0.0``, which is what ``np.mod`` returns for them
    (``-0.0`` included, which becomes ``+0.0``).  A tiny negative entry
    still reduces to exactly the period, as in ``np.mod``.  A common period
    is applied as a scalar, and unequal ones as an array of x's shape that
    holds each entry's own period, so no operation broadcasts a length-2 or
    length-3 period vector over the nodes.
    """
    x = np.asarray(x, dtype=float)
    return _mod_entries(x, _entry_periods(x.shape, periods))


def _mod_entries(x: np.ndarray, p) -> np.ndarray:
    """``mod_periods`` with the periods from ``_entry_periods``."""
    out = np.add(x, 0.0, out=np.empty_like(x))
    inside = x >= 0.0
    inside &= x < p
    if not inside.all():
        np.mod(x, p, out=out, where=~inside)
    return out


def _entry_periods(shape: tuple[int, ...], periods):
    """A common period as a scalar, unequal ones as an array of ``shape``
    holding each entry's own period along the last axis."""
    if np.ndim(periods) == 0:
        return periods
    p = np.asarray(periods, dtype=float)
    if p.size and (p == p[0]).all():
        return p[0]
    return np.tile(p, shape[:-1] + (1,))


# ---------------------------------------------------------------------------
# canonical coordinates


def reduce_points(m: TargetManifold, coords: np.ndarray) -> np.ndarray:
    """Project raw coordinates onto the canonical representation."""
    coords = np.asarray(coords, dtype=float)
    if m.kind == SPHERE:
        return coords * (m.radius / norm(coords)[..., None])
    return mod_periods(coords, m.periods)


def check_points(m: TargetManifold, coords: np.ndarray) -> None:
    coords = np.asarray(coords, dtype=float)
    if m.kind == SPHERE:
        err = np.max(np.abs(norm(coords) - m.radius))
        if err > POINT_TOL:
            raise ValueError(f"sphere point off the sphere by {err:g}")
    else:
        periods = np.asarray(m.periods)
        if np.any(coords < -POINT_TOL) or np.any(coords >= periods + POINT_TOL):
            raise ValueError("torus coordinates not reduced into [0, period)")


def project_tangent(m: TargetManifold, base: np.ndarray, vec: np.ndarray) -> np.ndarray:
    if m.kind == SPHERE:
        n = base / m.radius
        return vec - dot(vec, n)[..., None] * n
    return np.asarray(vec, dtype=float)


# ---------------------------------------------------------------------------
# metric, frames


def inner_points(m: TargetManifold, base: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    if m.conformal is None:
        # the round and flat weight is all ones, and 1.0 * x is x
        return dot(v, w)
    return m.conformal(np.asarray(base)) * dot(v, w)


def norm_points(m: TargetManifold, base: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(inner_points(m, base, v, v), 0.0))


def frames_at(m: TargetManifold, base: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean-orthonormal tangent frames, shape (..., dim, amb).

    On the torus the frame is the identity.  On the sphere the first leg is
    the ambient axis least aligned with the outward normal, Gram-Schmidt
    projected; the second is the cross product with the normal.  The choice
    is deterministic per point but may switch axes between far-apart points,
    so these frames are for pointwise use only (see ``smooth_frames`` for
    frame fields along a map).
    """
    base = np.asarray(base, dtype=float)
    if m.kind == TORUS:
        d = len(m.periods)
        eye = np.eye(d)
        return np.broadcast_to(eye, base.shape[:-1] + (d, d)).copy()
    n = base / m.radius
    axis = np.argmin(np.abs(n), axis=-1)
    e = np.zeros(base.shape[:-1] + (3,))
    np.put_along_axis(e, axis[..., None], 1.0, axis=-1)
    return _frame_legs(n, e)


def smooth_frames(
    m: TargetManifold, base_grid: np.ndarray, window: tuple[slice, ...]
) -> np.ndarray:
    """Orthonormal frame field along a grid of sphere points, single axis pick,
    at the nodes of the grid ``window``.

    The reference axis is chosen once for the whole grid (the one whose worst
    alignment with the normals is smallest), which keeps the field smooth in
    the grid as long as the values stay away from that axis; so a node's
    frame does not depend on the window.
    """
    base_grid = np.asarray(base_grid, dtype=float)
    if m.kind == TORUS:
        return frames_at(m, base_grid[window])
    n = base_grid / m.radius
    worst = np.max(np.abs(n.reshape(-1, 3)), axis=0)
    axis = int(np.argmin(worst))
    if worst[axis] > 0.99:
        raise ValueError("no ambient axis yields a smooth trivialization over this grid")
    e = np.zeros(3)
    e[axis] = 1.0
    return _frame_legs(n[window], e)


def _frame_legs(n: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Gram-Schmidt the reference axes ``e`` against the unit normals ``n``;
    the second leg is the cross product with the normal."""
    u1 = e - dot(e, n)[..., None] * n
    u1 = u1 / norm(u1)[..., None]
    u2 = cross(n, u1)
    return np.stack([u1, u2], axis=-2)


def to_frame(frames: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coordinates of ambient tangent vectors in orthonormal frames."""
    return np.einsum("...ad,...d->...a", frames, v)


def from_frame(frames: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Ambient tangent vectors from their coordinates in orthonormal frames."""
    return np.einsum("...a,...ad->...d", w, frames)


def frame_probes(w0: np.ndarray, step: float) -> np.ndarray:
    """The probes w0 + step e1, w0 - step e1, w0 + step e2, w0 - step e2 of a
    central-difference Jacobian in 2-d frame coordinates, stacked on a new
    leading axis."""
    e = step * np.eye(2)
    return np.stack([w0 + e[0], w0 - e[0], w0 + e[1], w0 - e[1]])


def frame_quotient(out: np.ndarray, step: float) -> np.ndarray:
    """The central differences of the images ``out`` of the ``frame_probes``,
    as Jacobian columns."""
    return np.stack([out[0] - out[1], out[2] - out[3]], axis=-1) / (2.0 * step)


# ---------------------------------------------------------------------------
# exponential / logarithm / distance


def inj_radius(m: TargetManifold) -> float:
    """Injectivity radius; constant over each supported manifold.

    For the conformally rescaled sphere a conservative lower bound is
    returned, which is all the chart machinery needs.
    """
    if m.kind == SPHERE:
        base = math.pi * m.radius
        if m.conformal is None:
            return base
        probe = _conformal_probe_points(m)
        w = m.conformal(probe)
        return 0.5 * base * math.sqrt(float(np.min(w)) / float(np.max(w)))
    return 0.5 * min(m.periods)


def _conformal_probe_points(m: TargetManifold) -> np.ndarray:
    u = np.linspace(0, math.pi, 40)
    v = np.linspace(0, 2 * math.pi, 80, endpoint=False)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    return m.radius * np.stack(
        [np.sin(uu) * np.cos(vv), np.sin(uu) * np.sin(vv), np.cos(uu)], axis=-1
    ).reshape(-1, 3)


def _log_margin(m: TargetManifold) -> float:
    # Near-cut-locus requests are rejected rather than regularized.
    if m.kind == SPHERE:
        return 1e-6
    return 1e-12 * min(m.periods)


def _require_finite(m: TargetManifold, op: str, a: np.ndarray, b: np.ndarray) -> None:
    """Raise ``WellDefinednessViolated`` naming the first node at which ``a``
    or ``b`` (two point arrays, broadcast together) has a non-finite coordinate.

    A geodesic through such a node has no meaning, and the closed forms would
    return NaN without a word.
    """
    if np.isfinite(a).all() and np.isfinite(b).all():
        return
    a, b = np.broadcast_arrays(a, b)
    bad = ~(np.isfinite(a).all(axis=-1) & np.isfinite(b).all(axis=-1))
    node = _node(np.flatnonzero(bad)[0], bad.shape)
    if m.kind == TORUS:
        label = "flat torus"
    else:
        label = "round sphere" if m.conformal is None else "conformal sphere"
    raise WellDefinednessViolated(
        f"{op} on the {label} at node {node}: {a[node]} and {b[node]} need finite coordinates"
    )


def exp_points(m: TargetManifold, base: np.ndarray, vec: np.ndarray) -> np.ndarray:
    base = np.asarray(base, dtype=float)
    vec = np.asarray(vec, dtype=float)
    _require_finite(m, "exp", base, vec)
    if m.kind == TORUS:
        return reduce_points(m, base + vec)
    if m.conformal is not None:
        return _geodesic_flow(m, base, vec)
    r = m.radius
    speed = norm(vec)[..., None]
    ang = speed / r
    # sinc form keeps vec = 0 exact and smooth
    unit_term = vec * _sinc(ang)
    out = np.cos(ang) * base + unit_term
    return reduce_points(m, out)


def _sinc(x: np.ndarray) -> np.ndarray:
    return np.sinc(x / np.pi)


def log_points(m: TargetManifold, base: np.ndarray, target: np.ndarray) -> np.ndarray:
    vecs, d = log_dist_points(m, base, target)
    require_log_reach(m, d)
    return vecs


def log_dist_points(
    m: TargetManifold, base: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The logarithm and the distance of the same pairs, from one computation.

    This is the one round, flat and conformal logarithm: ``log_points`` is it
    plus ``require_log_reach``, and ``dist_points`` is its distance.  Pairs
    beyond the injectivity radius are not rejected here, so a caller can run
    its own checks on the distances first.
    """
    base = np.asarray(base, dtype=float)
    target = np.asarray(target, dtype=float)
    _require_finite(m, "log", base, target)
    if m.kind == TORUS:
        delta = torus_wrap(m, target - base)
        return delta, norm(delta)
    if m.conformal is not None:
        vecs = _shoot_log(m, base, target)
        return vecs, norm_points(m, base, vecs)
    # clipped cosine and angle, from which both the vector and the distance come
    r = m.radius
    dots = np.clip(dot(base, target) / r**2, -1.0, 1.0)
    ang = np.arctan2(norm(cross(base, target)) / r**2, dots)
    u = target - dots[..., None] * base
    return u / _sinc(ang)[..., None], r * ang


def require_log_reach(m: TargetManifold, d: np.ndarray) -> None:
    """The injectivity check of ``log_points`` on distances from ``log_dist_points``.

    Conformal shooting raises on its own when it fails, so only the round
    and flat logarithms are checked.
    """
    if m.conformal is not None:
        return
    inj = inj_radius(m)
    worst = float(np.max(d)) if np.size(d) else 0.0
    if not worst < inj - _log_margin(m):  # a NaN distance fails too
        raise BeyondInjectivityRadius(
            f"distance {worst:.6g} reaches the injectivity radius {inj:.6g} of {m.kind}"
        )


def torus_wrap(m: TargetManifold, delta: np.ndarray) -> np.ndarray:
    """Shortest representative of torus coordinate differences, per axis.

    The half-period shifts come from the same per-entry periods as the
    reduction, so unequal periods are never broadcast over the nodes.
    """
    periods = _entry_periods(np.shape(delta), m.periods)
    half = periods / 2.0
    return _mod_entries(delta + half, periods) - half


def dist_points(m: TargetManifold, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return log_dist_points(m, a, b)[1]


# ---------------------------------------------------------------------------
# conformal geodesics: fixed-step RK4 plus batched Newton shooting

# RK4 step rule (floor, scale): a node of speed |v| on a sphere of radius R
# takes max(floor, ceil(scale (|v| / R)^(5/4))) steps.  After n steps the
# end-point error is about k (|v| / R)^5 / n^4 times R, with k from 0.01 to
# 0.035 for factors like exp((0.3 / R) z) against a 4,096-step flow, so this
# n holds the relative error near a constant.  A scale of 370 keeps it at or
# below 2e-12, the error of the former 64-step floor at |v| = 0.3, at every
# speed up to 1.3 R
_FLOW_RULE = (8, 370.0)
# The chord Jacobian only steers the Newton iteration, whose root and stopping
# test come from full-rule residual flows, so its probes flow at an eighth of
# the steps (Kelley, Iterative Methods for Linear and Nonlinear Equations, 1995)
_JACOBIAN_RULE = (4, 46.25)
# Most RK4 steps one node's flow may take.  With 370 (|v| / R)^(5/4) steps
# this caps the speed near 190 R.  Chart and probe vectors stay below the
# injectivity radius, pi R, so they take at most about 1,500 steps at any
# radius.  One node's flow at the cap costs over a minute; an uncapped
# |v| = 1e6 R would take weeks.
_MAX_ODE_STEPS = 2**18
_SHOOT_TOL = 1e-11
_SHOOT_MAX_ITER = 60
_JACOBIAN_REFRESH = 8


def _conformal_rhs(m: TargetManifold, pos: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """Acceleration of the conformal geodesic at ``(pos, vel)``, for (n, 3) arrays.

    With n = pos / r and the tangential gradient grad_t = grad - (grad . n) n,
    it is (0.5 |vel|^2 grad_t - (grad_t . vel) vel) / phi - (|vel|^2 / r^2) pos.
    Two work arrays take every (n, 3) intermediate through ``out=``, with the
    operands and order of operations of that formula, so the bits are the
    same as from fresh temporaries.  ``pos``, ``vel`` and the gradient (for
    ``z`` or ``+z``, a view of the read-only seeds) are only read.
    """
    phi, grad = m.conformal.value_and_gradient(pos)
    acc = np.divide(pos, m.radius, out=np.empty_like(pos))
    work = np.multiply(grad, acc, out=np.empty_like(pos))
    np.multiply(_last_axis_sum(work)[..., None], acc, out=acc)
    grad_t = np.subtract(grad, acc, out=acc)
    sq = _last_axis_sum(np.multiply(vel, vel, out=work))[..., None]
    along = _last_axis_sum(np.multiply(grad_t, vel, out=work))[..., None]
    np.multiply(along, vel, out=work)
    np.multiply(0.5 * sq, grad_t, out=acc)
    np.subtract(acc, work, out=acc)
    np.divide(acc, phi[..., None], out=acc)
    np.multiply(sq / m.radius**2, pos, out=work)
    return np.subtract(acc, work, out=acc)


def _node(i, shape: tuple) -> tuple:
    """The index tuple of flat node ``i`` in a batch of leading shape ``shape``."""
    return tuple(int(j) for j in np.unravel_index(int(i), shape))


def _geodesic_flow(
    m: TargetManifold, base: np.ndarray, vec: np.ndarray, rule: tuple[int, float] = _FLOW_RULE
) -> np.ndarray:
    """RK4 flow to time 1, batched over all leading axes.

    Each node takes its own step count by ``rule``, which grows with its own
    speed over the sphere radius to keep the end-point error within a fixed
    fraction of the radius; a node's end point therefore does not depend on
    the other nodes of the batch.  The nodes are sorted once by step count,
    so the nodes still flowing are always a prefix of the state.  The state
    is held component-major (Fortran order), so every broadcast of a
    per-node scalar against a vector runs over whole contiguous columns; the
    result is un-permuted into a C-ordered array in the caller's shape.
    """
    base, vec = np.broadcast_arrays(np.asarray(base, dtype=float), np.asarray(vec, dtype=float))
    shape = base.shape
    vel = vec.reshape(-1, shape[-1])
    # exp_points and log_points have checked base and target; a velocity that
    # is not finite or too fast (say, from a diverging shooting) fails the cap
    floor, scale = rule
    steps = np.maximum(floor, np.ceil(scale * (norm(vel) / m.radius) ** 1.25))
    over = np.flatnonzero(~(steps <= _MAX_ODE_STEPS))
    if over.size:
        i = int(over[0])
        raise WellDefinednessViolated(
            f"geodesic flow on the conformal sphere at node {_node(i, shape[:-1])}: "
            f"speed {norm(vel[i]):.6g} needs {steps[i]:.6g} RK4 steps, "
            f"more than the cap of {_MAX_ODE_STEPS}"
        )
    # slowest first, ties in batch order: the nodes taking step k are the
    # first live[k], the count of step counts over k
    order = np.argsort(-steps, kind="stable")
    steps = steps[order]
    live = np.searchsorted(-steps, -np.arange(np.max(steps, initial=0)))
    pos = np.asfortranarray(base.reshape(-1, shape[-1])[order])
    vel = np.asfortranarray(vel[order])
    h = (1.0 / steps)[:, None]
    half, sixth = 0.5 * h, h / 6.0
    for n in live:
        pos[:n], vel[:n] = _rk4_step(m, pos[:n], vel[:n], h[:n], half[:n], sixth[:n])
    out = np.empty(pos.shape)
    out[order] = pos
    return out.reshape(shape)


def _rk4_step(
    m: TargetManifold,
    pos: np.ndarray,
    vel: np.ndarray,
    h: np.ndarray,
    half: np.ndarray,
    sixth: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step of width ``h``; ``half`` and ``sixth`` are ``0.5 * h`` and ``h / 6.0``.

    The three stage positions share one work array, which the right-hand
    side only reads.
    """
    stage = np.empty_like(pos)
    k1p, k1v = vel, _conformal_rhs(m, pos, vel)
    k2p = _shifted(vel, half, k1v)
    k2v = _conformal_rhs(m, _shifted(pos, half, k1p, stage), k2p)
    k3p = _shifted(vel, half, k2v)
    k3v = _conformal_rhs(m, _shifted(pos, half, k2p, stage), k3p)
    k4p = _shifted(vel, h, k3v)
    k4v = _conformal_rhs(m, _shifted(pos, h, k3p, stage), k4p)
    return (
        reduce_points(m, _rk4_update(pos, k1p, k2p, k3p, k4p, sixth)),
        _rk4_update(vel, k1v, k2v, k3v, k4v, sixth),
    )


def _shifted(y: np.ndarray, c: np.ndarray, k: np.ndarray, out: np.ndarray | None = None):
    """``y + c * k``, computed in ``out`` (a new array when None)."""
    out = np.multiply(c, k, out=out)
    return np.add(y, out, out=out)


def _rk4_update(y, k1, k2, k3, k4, sixth):
    """``y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)``, accumulated in one temporary.

    The sum runs in the order ((k1 + 2 k2) + 2 k3) + k4; IEEE addition and
    multiplication commute, so the bits are those of the written expression.
    """
    out = 2 * k2
    out += k1
    out += 2 * k3
    out += k4
    out *= sixth
    out += y
    return out


def _shoot_log(m: TargetManifold, base: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Invert the conformal exponential by Newton iteration in frame coordinates.

    The iteration is batched over all leading axes; the round-metric
    logarithm provides the initial guess and the residual is measured
    through the round logarithm at the target, which is well defined for
    the desk-scale distances the charts allow.  Each node stops once its own
    residual is below ``_SHOOT_TOL``, and later iterations run on the nodes
    still moving, so a node's result does not depend on the rest of the batch.
    That is why each distinct (base, target) pair, compared by its bytes
    (``-0.0`` and ``+0.0`` differ), is shot once and its result handed to
    every row that repeats it.
    """
    base, target = np.broadcast_arrays(
        np.asarray(base, dtype=float), np.asarray(target, dtype=float)
    )
    shape = base.shape
    pairs = np.concatenate([base.reshape(-1, 3), target.reshape(-1, 3)], axis=1)
    _, first, inverse = np.unique(
        pairs.view(np.dtype((np.void, pairs.itemsize * 6))).ravel(),
        return_index=True, return_inverse=True,
    )
    w = _shoot_pairs(m, pairs[first, :3], pairs[first, 3:], lambda i: _node(first[i], shape[:-1]))
    return w[inverse].reshape(shape)


def _shoot_pairs(m: TargetManifold, base: np.ndarray, target: np.ndarray, node) -> np.ndarray:
    """``_shoot_log`` on (n, 3) arrays of bases and targets.

    A failure names the worst pair, by ``node(i)`` for pair i: the node with
    the smallest Jacobian determinant, or the largest residual left after the
    last iteration.
    """
    round_m = sphere(m.radius)
    frames = frames_at(m, base)
    target_frames = frames_at(round_m, target)

    def residual(wc: np.ndarray, live: np.ndarray, rule=_FLOW_RULE) -> np.ndarray:
        end = _geodesic_flow(m, base[live], from_frame(frames[live], wc), rule)
        return to_frame(target_frames[live], log_points(round_m, target[live], end))

    w = to_frame(frames, log_points(round_m, base, target))
    live = np.arange(len(w))
    inv = None
    r0 = residual(w, live)
    for it in range(_SHOOT_MAX_ITER + 1):
        moving = ~(norm(r0) < _SHOOT_TOL)
        live, r0 = live[moving], r0[moving]
        if not live.size:
            return from_frame(frames, w)
        if it == _SHOOT_MAX_ITER:
            break
        if inv is None or it % _JACOBIAN_REFRESH == 0:
            # chord Newton: the Jacobian is refreshed rarely, from coarse flows
            probes = frame_probes(w[live], 1e-7)
            jac = frame_quotient(residual(probes, live, _JACOBIAN_RULE), 1e-7)
            det = np.abs(np.linalg.det(jac))
            if np.any(det < 1e-14):
                i = int(np.nanargmin(det))
                raise BeyondInjectivityRadius(
                    f"conformal shooting became singular at node {node(live[i])}: "
                    f"Jacobian determinant of magnitude {det[i]:.3g}, below 1e-14"
                )
            inv = np.linalg.inv(jac)
        else:
            inv = inv[moving]
        w[live] = w[live] - np.einsum("...ab,...b->...a", inv, r0)
        r0 = residual(w[live], live)
    i = int(np.argmax(norm(r0)))
    raise BeyondInjectivityRadius(
        f"conformal shooting did not converge at node {node(live[i])}: residual "
        f"{norm(r0[i]):.3g} after {_SHOOT_MAX_ITER} iterations, tolerance {_SHOOT_TOL:g}"
    )


# ---------------------------------------------------------------------------
# fiberwise derivative of log_dst(exp_src(.))


def fiber_derivative_points(
    m_src: TargetManifold,
    m_dst: TargetManifold,
    src: np.ndarray,
    dst: np.ndarray,
    v0: np.ndarray,
    step: float = 1e-6,
) -> np.ndarray:
    """Derivative matrices of v -> log_dst(exp_src(v)) at v0, batched.

    exp is taken in ``m_src`` and log in ``m_dst``, two metrics for a change
    of metric.  Matrices are expressed in the canonical frames of
    ``frames_at`` at the source and destination.  On the flat torus the map
    is an affine translation, so the derivative is returned as the exact identity.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if m_src.kind == TORUS:
        return frames_at(m_src, src)  # torus frames are the identity
    probes = fiber_probes(m_src, src, v0, step)
    return fiber_matrices(m_dst, dst, log_points(m_dst, dst, exp_points(m_src, src, probes)), step)


def fiber_probes(m_src: TargetManifold, src: np.ndarray, v0: np.ndarray, step: float) -> np.ndarray:
    """The ``frame_probes`` of ``fiber_derivative_points`` around ``v0``, as
    ambient vectors at ``src`` stacked on a new leading axis.

    A caller may push them through exp and log inside a larger batch and
    hand their images to ``fiber_matrices``.
    """
    frames = frames_at(m_src, src)
    return from_frame(frames, frame_probes(to_frame(frames, np.asarray(v0, dtype=float)), step))


def fiber_matrices(m_dst: TargetManifold, dst: np.ndarray, images: np.ndarray, step: float):
    """Derivative matrices from ``images``, log_dst(exp_src(probe)) of the
    ``fiber_probes`` in their stacked order."""
    return frame_quotient(to_frame(frames_at(m_dst, dst), images), step)

