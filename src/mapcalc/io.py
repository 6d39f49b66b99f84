"""File formats: CSV payloads with JSON headers, and canonical JSON reports."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .atlas import CIRCLE_ATLAS, TORUS2_ATLAS, SampledMap, chart_layout
from .energy import DescentTrace
from .manifolds import POINT_TOL, SPHERE, TargetManifold, check_points, dot, norm
from .sections import PullbackSection

_ATLASES = {"circle": CIRCLE_ATLAS, "torus2": TORUS2_ATLAS}


def _header(obj: dict) -> str:
    return "# " + json.dumps(obj, sort_keys=True)


def _read_header(line: str) -> dict:
    if not line.startswith("# "):
        raise ValueError("missing JSON header line")
    return json.loads(line[2:])


def _write_grid_csv(f: SampledMap, groups, path) -> None:
    """Per-chart codec: one row per grid node of each chart of f, holding
    chart_id, the grid indices, then one ambient vector per column group, in
    the group order.

    ``groups`` pairs a column prefix with a node array along f; the rows go
    chart after chart, each grid in C order, read through the chart views.
    """
    f.values  # refuses a batch before the file is opened
    dim = f.atlas.dim
    amb = f.target.ambient_dim
    head = {"atlas": f.atlas.kind, "resolution": f.resolution,
            "target": json.loads(f.target.to_json())}
    with Path(path).open("w", newline="") as fh:
        fh.write(_header(head) + "\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["chart_id"] + [f"i{a}" for a in range(dim)]
            + [f"{prefix}{a}" for prefix, _ in groups for a in range(amb)]
        )
        for chart, *views in zip(f.atlas.charts, *(f.views(nodes) for _, nodes in groups)):
            rows = zip(np.ndindex(views[0].shape[:-1]), *(v.reshape(-1, amb) for v in views))
            for idx, *vecs in rows:
                writer.writerow([chart.id, *idx] + [repr(float(x)) for vec in vecs for x in vec])


def _read_grid_csv(path, ngroups: int) -> tuple[SampledMap, tuple]:
    """Read a per-chart file with ``ngroups`` column groups, the first being
    the base points; returns the base map and the other groups.

    Rejects a header without a known atlas, an integer resolution of at
    least 8 and a valid target; a file that ends after the header; missing,
    duplicate and out-of-grid nodes, two charts' rows at one lattice point
    that disagree, rows with the wrong field count, non-finite values, and
    base points off the target.
    """
    with Path(path).open() as fh:
        head = _read_header(fh.readline())
        if not isinstance(head, dict) or head.get("atlas") not in tuple(_ATLASES) or "target" not in head:
            raise ValueError(f"{path}: header must be an object with a known atlas and a target")
        res = head.get("resolution")
        if not isinstance(res, int) or isinstance(res, bool) or res < 8:
            raise ValueError(f"{path}: resolution must be an integer of at least 8, not {res!r}")
        atlas = _ATLASES[head["atlas"]]
        target = TargetManifold.from_json(json.dumps(head["target"]))
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError(f"{path}: missing column names line")
        rows = [(reader.line_num + 1, row) for row in reader]
        dim = atlas.dim
        amb = target.ambient_dim
        # the rows must fill the header's grid before its mesh is built: a
        # three-row file may claim a resolution of 1e9, or 10**400, which overflows
        # the grid step; an atlas has a few rows, and at least one, per lattice point
        if res**dim > len(rows):
            raise ValueError(f"{path}: at least {res**dim - len(rows)} grid nodes missing")
        layout = chart_layout(atlas, res)
        grids = [layout.chart_nodes(chart.id) for chart in atlas.charts]
        expected = sum(grid.size for grid in grids)
        if len(rows) < expected:
            raise ValueError(f"{path}: {expected - len(rows)} grid nodes missing")
        groups = np.empty((ngroups, len(layout.mesh), amb))
        seen = [np.zeros(grid.shape, dtype=bool) for grid in grids]
        filled = np.zeros(len(layout.mesh), dtype=bool)
        for line, row in rows:
            where = f"{path}, line {line}"
            if len(row) != 1 + dim + ngroups * amb:
                raise ValueError(f"{where}: expected {1 + dim + ngroups * amb} fields")
            cid = int(row[0])
            idx = tuple(int(x) for x in row[1 : 1 + dim])
            if not 0 <= cid < len(grids) or not all(0 <= i < n for i, n in zip(idx, grids[cid].shape)):
                raise ValueError(f"{where}: node {cid}{list(idx)} is off the grid")
            if seen[cid][idx]:
                raise ValueError(f"{where}: duplicate node {cid}{list(idx)}")
            seen[cid][idx] = True
            nums = [float(x) for x in row[1 + dim :]]
            if not all(map(math.isfinite, nums)):
                raise ValueError(f"{where}: non-finite value")
            vecs = np.reshape(nums, (ngroups, amb))
            node = grids[cid][idx]
            if filled[node] and not np.array_equal(groups[:, node], vecs):
                raise ValueError(f"{where}: node {cid}{list(idx)} disagrees with another "
                                 "chart's row at its lattice point")
            filled[node] = True
            groups[:, node] = vecs
    missing = expected - sum(np.count_nonzero(s) for s in seen)
    if missing:
        raise ValueError(f"{path}: {missing} grid nodes missing")
    check_points(target, groups[0])
    return SampledMap(atlas, target, res, groups[0]), tuple(groups[1:])


def write_map_csv(f: SampledMap, path) -> None:
    """Columns: chart_id, grid indices, coordinate values."""
    _write_grid_csv(f, [("c", f.nodes)], path)


def read_map_csv(path) -> SampledMap:
    return _read_grid_csv(path, 1)[0]


def write_section_csv(s: PullbackSection, path) -> None:
    """Columns: chart_id, grid indices, base point, vector components."""
    f = s.base_map
    _write_grid_csv(f, [("p", f.nodes), ("v", s.vectors)], path)


def read_section_csv(path) -> PullbackSection:
    """Read ``write_section_csv`` output; rejects what ``_read_grid_csv``
    rejects, and on the sphere a vector v at a point p with
    |v.p| / R > ``POINT_TOL`` max(1, |v|).  A header key the format no longer
    writes, such as an old file's ``bound``, is ignored."""
    f, (vecs,) = _read_grid_csv(path, 2)
    # stored vectors were projected when the section was built; re-projecting
    # here would perturb the last bits and break exact round trips, so off-tangent
    # vectors are rejected instead
    if f.target.kind == SPHERE:
        off = np.abs(dot(vecs, f.nodes)) / f.target.radius
        if np.any(off > POINT_TOL * np.maximum(1.0, norm(vecs))):
            raise ValueError(f"{path}: vector off the tangent plane by {np.max(off):g}")
    return PullbackSection(f, vecs)


_TRACE_COLUMNS = ["step", "energy", "grad_norm", "step_size"]


def write_trace_csv(trace: DescentTrace, path) -> None:
    """One row per iterate: step, energy, grad_norm, step_size."""
    if not trace.rows:
        raise ValueError("trace is empty")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_COLUMNS)
        for step, energy, gnorm, size in trace.rows:
            writer.writerow([step, repr(energy), repr(gnorm), repr(size)])


def read_trace_csv(path) -> DescentTrace:
    """Read ``write_trace_csv`` output.

    Rejects with ``ValueError`` another header, a file without data rows, a
    row without four fields, a step that is not an integer or does not
    increase, a non-finite value and (through ``DescentTrace``) a step size
    that is not positive.
    """
    path = Path(path)
    rows = []
    with path.open() as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _TRACE_COLUMNS:
            raise ValueError(f"{path}: header must be {','.join(_TRACE_COLUMNS)}")
        for r in reader:
            where = f"{path}, line {reader.line_num}"
            if len(r) != len(_TRACE_COLUMNS):
                raise ValueError(f"{where}: expected {len(_TRACE_COLUMNS)} fields")
            if not (r[0].isascii() and r[0].isdigit()):
                raise ValueError(f"{where}: step {r[0]!r} is not an integer")
            step = int(r[0])
            if rows and step <= rows[-1][0]:
                raise ValueError(f"{where}: step {step} does not follow step {rows[-1][0]}")
            nums = [float(x) for x in r[1:]]
            if not all(map(math.isfinite, nums)):
                raise ValueError(f"{where}: non-finite value")
            rows.append((step, *nums))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return DescentTrace(tuple(rows))


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, plain floats, trailing newline."""
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj)!r}")
