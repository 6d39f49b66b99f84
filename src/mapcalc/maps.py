"""Closed-form map descriptors and seeded random families for experiments."""

from __future__ import annotations

import functools

import numpy as np

from .atlas import MapFormula
from .manifolds import TargetManifold, norm, reduce_points

# scale of the random Fourier coefficients of random loops, 1/k of it at mode k
LOOP_AMPLITUDE = 0.15


def constant_formula(m: TargetManifold, coords) -> MapFormula:
    p = reduce_points(m, np.asarray(coords, dtype=float))

    def fn(mesh):
        return np.broadcast_to(p, mesh.shape[:-1] + (len(p),)).copy()

    return MapFormula(f"const{tuple(np.round(p, 3))}", fn)


def torus_loop(
    winding: tuple[int, ...] = (1, 0),
    shift: tuple[float, ...] | None = None,
    waves: tuple[tuple[int, float, float], ...] = (),
) -> MapFormula:
    """Circle-to-torus loop: winding plus optional sinusoidal waves per axis.

    Each wave is (axis, amplitude, phase) at consecutive mode numbers
    1, 2, ... in the order given, added to that coordinate.
    """
    w = np.asarray(winding, dtype=float)
    shift_arr = np.zeros(len(w)) if shift is None else np.asarray(shift, dtype=float)

    def fn(mesh):
        theta = mesh[..., 0]
        out = theta[..., None] * w + shift_arr
        for mode, (axis, amp, phase) in enumerate(waves, start=1):
            out[..., axis] += amp * np.sin(mode * theta + phase)
        return out

    return MapFormula(f"loop{tuple(int(x) for x in winding)}", fn)


def great_circle(radius: float = 1.0, rotation: np.ndarray | None = None) -> MapFormula:
    rot = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)

    def fn(mesh):
        theta = mesh[..., 0]
        circ = radius * np.stack(
            [np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=-1
        )
        return circ @ rot.T

    return MapFormula("great_circle", fn)


def sphere_cap_loop(radius: float, cap_angle: float) -> MapFormula:
    """Contractible loop at constant geodesic distance from the north pole."""

    def fn(mesh):
        theta = mesh[..., 0]
        s, c = np.sin(cap_angle), np.cos(cap_angle)
        return radius * np.stack(
            [s * np.cos(theta), s * np.sin(theta), c * np.ones_like(theta)], axis=-1
        )

    return MapFormula(f"cap_loop({cap_angle:.3g})", fn)


def harmonic_tables(theta: np.ndarray, modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``sin((k+1) theta)`` and ``cos((k+1) theta)`` for k < ``modes``,
    stacked on a leading axis.

    The tables are kept by the values of ``theta``: random loops and vector
    fields evaluate their harmonics on the same lattice mesh again and
    again.
    """
    theta = np.asarray(theta, dtype=float)
    return _harmonic_tables(theta.shape, theta.tobytes(), modes)


# the lattices of one run are few (one mesh per resolution), so a small
# bound keeps them all while capping the memory at a few grids' worth
@functools.lru_cache(maxsize=8)
def _harmonic_tables(shape: tuple, data: bytes, modes: int) -> tuple[np.ndarray, np.ndarray]:
    theta = np.frombuffer(data).reshape(shape)
    angles = [(k + 1) * theta for k in range(modes)]
    tables = (np.array([np.sin(t) for t in angles]), np.array([np.cos(t) for t in angles]))
    for table in tables:
        table.flags.writeable = False
    return tables


def add_fourier_modes(out: np.ndarray, theta: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``out`` plus sum_k sin((k+1) theta) coeffs[k, 0] + cos((k+1) theta) coeffs[k, 1].

    ``coeffs`` of shape (T, K, 2, amb), T trials' coefficients stacked,
    gives one sum per trial on a leading trial axis.  Each component is
    summed in its own column, in the order of the sum, and the columns are
    stacked once at the end; the harmonics come from ``harmonic_tables``.
    """
    coeffs = over_grid(coeffs, 3, theta)
    sines, cosines = harmonic_tables(theta, coeffs.shape[-3])
    cols = [out[..., a] for a in range(out.shape[-1])]
    for k in range(coeffs.shape[-3]):
        s, c = sines[k], cosines[k]
        cols = [col + s * coeffs[..., k, 0, a] for a, col in enumerate(cols)]
        cols = [col + c * coeffs[..., k, 1, a] for a, col in enumerate(cols)]
    return np.stack(cols, axis=-1)


def over_grid(coeffs: np.ndarray, tail: int, theta: np.ndarray) -> np.ndarray:
    """``coeffs`` with a unit axis per axis of ``theta`` put before its last
    ``tail`` axes, so that its leading trial axis, if any, broadcasts ahead
    of the grid axes."""
    cut = coeffs.ndim - tail
    return coeffs.reshape(coeffs.shape[:cut] + (1,) * theta.ndim + coeffs.shape[cut:])


def stack_draws(draws) -> tuple[np.ndarray, ...]:
    """Per-trial tuples of coefficient arrays stacked into one tuple of
    arrays, each with a leading trial axis."""
    return tuple(np.stack(parts) for parts in zip(*draws))


def loop_draws(m: TargetManifold, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """The Fourier coefficients of one random loop into ``m``, drawn from
    ``rng``: on the sphere, modes 1 to 3 near the equator; on the torus, a
    winding in {-1, 0, 1} per axis, the modes, then a shift."""
    if m.kind == "sphere":
        return (LOOP_AMPLITUDE * rng.standard_normal((3, 2, 3)) / np.arange(1, 4)[:, None, None],)
    dim = len(m.periods)
    w = rng.integers(-1, 2, size=dim).astype(float)
    amp = LOOP_AMPLITUDE * rng.standard_normal((3, 2, dim)) / np.arange(1, 4)[:, None, None]
    return w, amp, rng.uniform(0, 2 * np.pi, size=dim)


def random_loop(m: TargetManifold, draws: tuple[np.ndarray, ...]) -> MapFormula:
    """The smooth loop of ``loop_draws``; draws stacked by ``stack_draws``
    give the batch of loops, evaluated in one pass.

    A sphere loop is normalized back to the sphere; a torus loop is its
    winding plus a shift plus the modes.
    """
    modes = draws[0] if m.kind == "sphere" else draws[1]
    trials = len(modes) if modes.ndim > 3 else None  # one trial's modes are (3, 2, amb)
    if m.kind == "sphere":
        (coeffs,) = draws

        def fn(mesh):
            theta = mesh[..., 0]
            base = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=-1)
            base = add_fourier_modes(base, theta, coeffs)
            return m.radius * base / norm(base)[..., None]

        return MapFormula("sphere_fourier", fn, trials)
    w, amp, shift = draws

    def fn(mesh):
        theta = mesh[..., 0]
        straight = theta[..., None] * over_grid(w, 1, theta) + over_grid(shift, 1, theta)
        return add_fourier_modes(straight, theta, amp)

    return MapFormula("torus_fourier", fn, trials)


def torus2_wave(winding: tuple[tuple[int, int], tuple[int, int]], amp: float = 0.0) -> MapFormula:
    """Two-torus to two-torus map with an optional mixed-mode wave."""
    w = np.asarray(winding, dtype=float)

    def fn(mesh):
        out = mesh @ w.T
        if amp:
            out = out + amp * np.stack(
                [
                    np.sin(mesh[..., 0] + mesh[..., 1]),
                    np.cos(mesh[..., 0] - mesh[..., 1]),
                ],
                axis=-1,
            )
        return out

    return MapFormula("torus2_wave", fn)

