"""Closed-form map descriptors and seeded random families for experiments."""

from __future__ import annotations

import functools

import numpy as np

from .atlas import CIRCLE_ATLAS, MapFormula
from .charts import DomainMap, TargetMap
from .manifolds import TargetManifold, norm, reduce_points


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
    fields evaluate their harmonics on the same chart lattice again and
    again.
    """
    theta = np.asarray(theta, dtype=float)
    return _harmonic_tables(theta.shape, theta.tobytes(), modes)


# the lattices of one run are few (one per chart and resolution), so a small
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

    Each component is summed in its own column, in the order of the sum, and
    the columns are stacked once at the end; the harmonics come from
    ``harmonic_tables``.
    """
    sines, cosines = harmonic_tables(theta, coeffs.shape[0])
    cols = [out[..., a] for a in range(out.shape[-1])]
    for k in range(coeffs.shape[0]):
        s, c = sines[k], cosines[k]
        cols = [col + s * coeffs[k, 0, a] for a, col in enumerate(cols)]
        cols = [col + c * coeffs[k, 1, a] for a, col in enumerate(cols)]
    return np.stack(cols, axis=-1)


def sphere_fourier_loop(
    radius: float, rng: np.random.Generator, amplitude: float = 0.2, modes: int = 3
) -> MapFormula:
    """Smooth random loop near the equator, normalized back to the sphere."""
    coeffs = amplitude * rng.standard_normal((modes, 2, 3)) / np.arange(1, modes + 1)[:, None, None]

    def fn(mesh):
        theta = mesh[..., 0]
        base = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=-1)
        base = add_fourier_modes(base, theta, coeffs)
        return radius * base / norm(base)[..., None]

    return MapFormula("sphere_fourier", fn)


def torus_fourier_loop(
    dim: int,
    rng: np.random.Generator,
    winding: tuple[int, ...] | None = None,
    amplitude: float = 0.2,
    modes: int = 3,
) -> MapFormula:
    if winding is None:
        winding = tuple(int(w) for w in rng.integers(-1, 2, size=dim))
    w = np.asarray(winding, dtype=float)
    amp = amplitude * rng.standard_normal((modes, 2, dim)) / np.arange(1, modes + 1)[:, None, None]
    shift = rng.uniform(0, 2 * np.pi, size=dim)

    def fn(mesh):
        theta = mesh[..., 0]
        return add_fourier_modes(theta[..., None] * w + shift, theta, amp)

    return MapFormula("torus_fourier", fn)


def random_loop(m: TargetManifold, rng: np.random.Generator, amplitude: float = 0.2) -> MapFormula:
    if m.kind == "sphere":
        return sphere_fourier_loop(m.radius, rng, amplitude=amplitude)
    return torus_fourier_loop(len(m.periods), rng, amplitude=amplitude)


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


# ---------------------------------------------------------------------------
# fixed maps of targets and domains


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def sphere_rotation(m: TargetManifold, axis, angle: float) -> TargetMap:
    rot = rotation_matrix(np.asarray(axis, dtype=float), angle)
    return TargetMap(f"rot({angle:.3g})", lambda pts: pts @ rot.T, m)


def torus_translation(m: TargetManifold, offset) -> TargetMap:
    off = np.asarray(offset, dtype=float)
    return TargetMap(f"shift{tuple(np.round(off, 3))}", lambda pts: pts + off, m)


def identity_target(m: TargetManifold) -> TargetMap:
    return TargetMap("id", lambda pts: pts, m)


def circle_shift(c: float) -> DomainMap:
    return DomainMap(f"theta+{c:.3g}", lambda mesh: mesh + c, CIRCLE_ATLAS)


def circle_cover(degree: int) -> DomainMap:
    return DomainMap(f"theta*{degree}", lambda mesh: degree * mesh, CIRCLE_ATLAS)


def circle_identity() -> DomainMap:
    return DomainMap("id", lambda mesh: mesh, CIRCLE_ATLAS)
