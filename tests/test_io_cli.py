"""Tests for file formats, report determinism, and the command line."""

import contextlib
import gc
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapcalc import CIRCLE_ATLAS, TORUS2_ATLAS, MapFormula, flat_torus, sample_map, sphere
from mapcalc.atlas import TAU, chart_layout
from mapcalc import experiments, topology
from mapcalc.cli import (
    SUITES,
    ExperimentConfig,
    build_suite,
    execute_checks,
    load_config,
    main,
    run_suite,
)
from mapcalc.energy import DescentTrace, descend
from mapcalc.errors import ConfigError, WellDefinednessViolated
from mapcalc.experiments import field_draws, random_center, random_section, random_vector_field
from mapcalc.io import (
    read_map_csv,
    read_section_csv,
    read_trace_csv,
    write_map_csv,
    write_section_csv,
    write_trace_csv,
)
from mapcalc.manifolds import reduce_points
from mapcalc.maps import add_fourier_modes, great_circle, torus_loop
from mapcalc.sections import section_from_formula
from oracles import grid_coords

T22 = flat_torus(TAU, TAU)
S1 = sphere(1.0)


class TestMapCsv:
    def test_roundtrip_torus(self, tmp_path):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0), waves=((0, 0.2, 0.4),)), 64)
        path = tmp_path / "map.csv"
        write_map_csv(f, path)
        again = read_map_csv(path)
        assert again.resolution == f.resolution
        assert again.target.kind == f.target.kind
        for a, b in zip(f.values, again.values):
            assert np.array_equal(a, b)

    def test_roundtrip_sphere(self, tmp_path, rng):
        f = random_center(S1, 64, rng)
        path = tmp_path / "map.csv"
        write_map_csv(f, path)
        again = read_map_csv(path)
        for a, b in zip(f.values, again.values):
            assert np.array_equal(a, b)

    def test_roundtrip_torus2_domain(self, tmp_path):
        from mapcalc import TORUS2_ATLAS
        from mapcalc.maps import torus2_wave

        f = sample_map(TORUS2_ATLAS, T22, torus2_wave(((1, 0), (0, 1)), amp=0.1), 16)
        path = tmp_path / "map2d.csv"
        write_map_csv(f, path)
        again = read_map_csv(path)
        for a, b in zip(f.values, again.values):
            assert np.array_equal(a, b)


def _per_chart_map_csv(atlas, target, formula, resolution, path):
    """A map file written chart after chart from each chart grid's own
    samples, without the node array: the format the reader takes.  Returns
    the per-chart values."""
    charts = []
    for chart in atlas.charts:
        mesh = np.stack(np.meshgrid(*grid_coords(chart, resolution), indexing="ij"), axis=-1)
        charts.append(reduce_points(target, formula.fn(mesh)))
    head = {"atlas": atlas.kind, "resolution": resolution, "target": json.loads(target.to_json())}
    rows = [",".join(["chart_id"] + [f"i{a}" for a in range(atlas.dim)]
                     + [f"c{a}" for a in range(target.ambient_dim)])]
    for chart, vals in zip(atlas.charts, charts):
        for idx in np.ndindex(vals.shape[:-1]):
            rows.append(",".join(map(str, (chart.id, *idx, *map(repr, map(float, vals[idx]))))))
    # the JSON header ends in a newline, and the CSV rows in CRLF
    path.write_text("# " + json.dumps(head, sort_keys=True) + "\n" + "".join(r + "\r\n" for r in rows))
    return charts


@pytest.mark.parametrize("atlas,target,resolution", [
    (CIRCLE_ATLAS, T22, 64), (CIRCLE_ATLAS, S1, 64), (TORUS2_ATLAS, T22, 12), (TORUS2_ATLAS, S1, 12),
], ids=["circle_torus", "circle_sphere", "torus2_torus", "torus2_sphere"])
def test_per_chart_file_reads_back_bit_identical_and_rewrites_its_bytes(
    tmp_path, atlas, target, resolution
):
    path = tmp_path / "map.csv"
    charts = _per_chart_map_csv(atlas, target, _random_formula(target, 3), resolution, path)
    f = read_map_csv(path)
    for view, vals in zip(f.values, charts, strict=True):
        assert _bits_equal(np.ascontiguousarray(view), vals)
    write_map_csv(f, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("atlas,resolution", [(CIRCLE_ATLAS, 32), (TORUS2_ATLAS, 8)])
def test_map_reader_rejects_charts_that_disagree_at_a_lattice_point(tmp_path, atlas, resolution):
    # chart 1's first row sits at a lattice point chart 0 reaches at the same
    # index, so the two rows share one node and must carry the same values
    f = sample_map(atlas, T22, _random_formula(T22, 0), resolution)
    path = tmp_path / "map.csv"
    write_map_csv(f, path)
    head, columns, *rows = path.read_text().splitlines()
    first = rows.index(next(r for r in rows if r.startswith("1,")))
    fields = rows[first].split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-3)
    rows[first] = ",".join(fields)
    path.write_text("\n".join([head, columns, *rows]) + "\n")
    index = re.escape(str([0] * atlas.dim))
    with pytest.raises(ValueError, match=f"node 1{index} disagrees"):
        read_map_csv(path)


def _set_field(row: int, col: int, value: str):
    def corrupt(rows):
        rows[row][col] = value
        return rows

    return corrupt


CORRUPTIONS = {
    "missing_node": lambda rows: rows[:7] + rows[8:],
    "duplicate_node": lambda rows: rows + [rows[7]],
    "chart_id_off_grid": _set_field(7, 0, "2"),
    "index_off_grid": _set_field(7, 1, "999"),
    "negative_index": _set_field(7, 1, "-1"),
    "wrong_field_count": lambda rows: rows[:7] + [rows[7][:-1]] + rows[8:],
    "non_finite_value": _set_field(7, 3, "nan"),
    "point_off_target": _set_field(7, 2, "7.0"),
}


@pytest.mark.parametrize("corrupt", list(CORRUPTIONS.values()), ids=list(CORRUPTIONS))
def test_map_reader_rejects_corrupted_file(tmp_path, corrupt):
    f = sample_map(CIRCLE_ATLAS, S1, great_circle(), 32)
    path = tmp_path / "map.csv"
    write_map_csv(f, path)
    head, columns, *rows = path.read_text().splitlines()
    rows = corrupt([r.split(",") for r in rows])
    path.write_text("\n".join([head, columns] + [",".join(r) for r in rows]) + "\n")
    with pytest.raises(ValueError):
        read_map_csv(path)


def _grid_file(tmp_path, rng, kind):
    """A map or a section file on the great circle at resolution 16, and its
    reader."""
    f = sample_map(CIRCLE_ATLAS, S1, great_circle(), 16)
    path = tmp_path / "grid.csv"
    if kind == "map":
        write_map_csv(f, path)
        return path, read_map_csv
    write_section_csv(random_section(f, rng, 0.2), path)
    return path, read_section_csv


@pytest.mark.parametrize("kind", ["map", "section"])
def test_grid_reader_rejects_header_only_file(tmp_path, rng, kind):
    path, read = _grid_file(tmp_path, rng, kind)
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    with pytest.raises(ValueError):
        read(path)


@pytest.mark.parametrize("kind", ["map", "section"])
def test_grid_reader_counts_rows_before_building_the_grid(tmp_path, monkeypatch, rng, kind):
    # three rows under a header of resolution 1e9, whose mesh would take 16 GB
    path, read = _grid_file(tmp_path, rng, kind)
    head, columns, *rows = path.read_text().splitlines()
    header = {**json.loads(head[2:]), "resolution": 10**9}
    path.write_text("\n".join(["# " + json.dumps(header), columns, *rows[:3]]) + "\n")

    def small_layout(atlas, resolution):
        assert resolution <= 4096, f"the reader built a grid at resolution {resolution}"
        return chart_layout(atlas, resolution)

    monkeypatch.setattr("mapcalc.io.chart_layout", small_layout)
    with pytest.raises(ValueError, match="grid nodes missing"):
        read(path)


def test_torus_reader_counts_every_lattice_point_before_building_the_grid(tmp_path, monkeypatch):
    # a torus file of 324 rows under a header of resolution 100: more rows
    # than the resolution, far fewer than the 10,000 lattice points
    f = sample_map(TORUS2_ATLAS, T22, _random_formula(T22, 0), 8)
    path = tmp_path / "map.csv"
    write_map_csv(f, path)
    head, columns, *rows = path.read_text().splitlines()
    assert 100 < len(rows) < 100**2
    header = {**json.loads(head[2:]), "resolution": 100}
    path.write_text("\n".join(["# " + json.dumps(header), columns, *rows]) + "\n")

    def small_layout(atlas, resolution):
        assert resolution <= 8, f"the reader built a grid at resolution {resolution}"
        return chart_layout(atlas, resolution)

    monkeypatch.setattr("mapcalc.io.chart_layout", small_layout)
    with pytest.raises(ValueError, match="at least 9676 grid nodes missing"):
        read_map_csv(path)


@pytest.mark.parametrize("kind", ["map", "section"])
def test_grid_reader_rejects_a_resolution_beyond_floats(tmp_path, rng, kind):
    # TAU / 10**400 overflows, so the bound must come before the grid step
    path, read = _grid_file(tmp_path, rng, kind)
    head, columns, *rows = path.read_text().splitlines()
    header = {**json.loads(head[2:]), "resolution": 10**400}
    path.write_text("\n".join(["# " + json.dumps(header), columns, *rows[:3]]) + "\n")
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read(path)


HEADER_CORRUPTIONS = {
    "unknown_atlas": lambda head: {**head, "atlas": "sphere3"},
    "missing_target": lambda head: {k: v for k, v in head.items() if k != "target"},
    "zero_resolution": lambda head: {**head, "resolution": 0},
    "fractional_resolution": lambda head: {**head, "resolution": 16.7},
    "list_header": lambda head: [head],
    "unknown_target_kind": lambda head: {**head, "target": {"kind": "cube", "periods": [TAU, TAU]}},
    "sphere_without_radius": lambda head: {**head, "target": {"kind": "sphere"}},
    "string_radius": lambda head: {**head, "target": {"kind": "sphere", "radius": "1"}},
    "numeric_conformal": lambda head: {**head, "target": {"kind": "sphere", "radius": 1.0, "conformal": 5}},
    "list_target": lambda head: {**head, "target": [6.0, 6.0]},
}


@pytest.mark.parametrize("corrupt", list(HEADER_CORRUPTIONS.values()), ids=list(HEADER_CORRUPTIONS))
def test_map_reader_rejects_bad_header(tmp_path, corrupt):
    f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0)), 16)
    path = tmp_path / "map.csv"
    write_map_csv(f, path)
    head, rest = path.read_text().split("\n", 1)
    path.write_text("# " + json.dumps(corrupt(json.loads(head[2:]))) + "\n" + rest)
    with pytest.raises(ValueError):
        read_map_csv(path)


def test_map_reader_rejects_overflowing_conformal_header(tmp_path):
    f = sample_map(CIRCLE_ATLAS, sphere(1.0, conformal="exp(0.3*z)"), great_circle(), 8)
    path = tmp_path / "map.csv"
    write_map_csv(f, path)
    text = path.read_text()
    path.write_text(text.replace("exp(0.3*z)", "1 + 0*x + 0*9**9**9", 1))
    with pytest.raises(ValueError):
        read_map_csv(path)


def test_map_reader_rejects_complex_conformal_header(tmp_path):
    f = sample_map(CIRCLE_ATLAS, sphere(1.0, conformal="exp(0.3*z)"), great_circle(), 8)
    path = tmp_path / "map.csv"
    write_map_csv(f, path)
    text = path.read_text()
    path.write_text(text.replace("exp(0.3*z)", "1 + 0*x + (-1)**0.5", 1))
    with pytest.raises(ValueError):
        read_map_csv(path)


def _random_formula(target, seed: int) -> MapFormula:
    """A smooth map from either domain into the target, for codec tests."""
    rng = np.random.default_rng(seed)
    amb = target.ambient_dim
    coeffs = rng.uniform(-0.5, 0.5, (2, 2, amb))
    offset = np.zeros(amb) if target.kind == "torus" else np.array([0.0, 0.0, 4.0])

    def fn(mesh):
        theta = mesh.sum(axis=-1)
        raw = add_fourier_modes(np.broadcast_to(offset, theta.shape + (amb,)), theta, coeffs)
        if target.kind == "torus":
            return raw
        return target.radius * raw / np.linalg.norm(raw, axis=-1, keepdims=True)

    return MapFormula("codec_test", fn)


def _bits_equal(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    atlas=st.sampled_from([CIRCLE_ATLAS, TORUS2_ATLAS]),
    target=st.sampled_from([S1, T22]),
    resolution=st.integers(8, 20),
    seed=st.integers(0, 2**32 - 1),
    as_section=st.booleans(),
    data=st.data(),
)
def test_grid_codec_round_trip_and_row_edits(
    tmp_path_factory, atlas, target, resolution, seed, as_section, data
):
    f = sample_map(atlas, target, _random_formula(target, seed), resolution)
    path = tmp_path_factory.mktemp("codec") / "grid.csv"
    if as_section:
        vf = random_vector_field(field_draws(np.random.default_rng(seed), target.ambient_dim))
        s = section_from_formula(f, vf)
        write_section_csv(s, path)
        again = read_section_csv(path)
        assert again.sup == s.sup
        assert _bits_equal(again.vectors, s.vectors)
        assert _bits_equal(again.base_map.nodes, f.nodes)
        read = read_section_csv
    else:
        write_map_csv(f, path)
        assert _bits_equal(read_map_csv(path).nodes, f.nodes)
        read = read_map_csv
    lines = path.read_text().splitlines(keepends=True)
    k = data.draw(st.integers(2, len(lines) - 1), label="data row")
    for edited in (lines[:k] + lines[k + 1 :], lines[: k + 1] + lines[k:]):
        path.write_text("".join(edited))
        with pytest.raises(ValueError):
            read(path)


class TestSectionCsv:
    def test_roundtrip(self, tmp_path, rng):
        f = random_center(S1, 64, rng)
        s = random_section(f, rng, 0.2)
        path = tmp_path / "section.csv"
        write_section_csv(s, path)
        again = read_section_csv(path)
        assert again.sup == s.sup
        assert np.array_equal(s.vectors, again.vectors)
        assert np.array_equal(s.base_map.nodes, again.base_map.nodes)

    def test_old_file_with_a_bound_reads_back(self, tmp_path, rng):
        # files once carried a declared bound in the header; it is ignored
        f = random_center(S1, 16, rng)
        s = random_section(f, rng, 0.2)
        path = tmp_path / "section.csv"
        write_section_csv(s, path)
        head, rest = path.read_text().split("\n", 1)
        assert "bound" not in head
        path.write_text("# " + json.dumps({**json.loads(head[2:]), "bound": 0.3}) + "\n" + rest)
        again = read_section_csv(path)
        assert _bits_equal(again.vectors, s.vectors)
        assert _bits_equal(again.base_map.nodes, f.nodes)

    @staticmethod
    def _write_normal_vector(path, radius, rng):
        # a section over a random loop on the sphere of ``radius``, with the
        # vector at one node replaced by 0.01 p, straight out of the sphere
        f = random_center(sphere(radius), 16, rng)
        write_section_csv(random_section(f, rng, 0.2 * radius), path)
        head, columns, *rows = path.read_text().splitlines()
        row = rows[7].split(",")
        row[5:8] = [repr(0.01 * float(x)) for x in row[2:5]]
        rows[7] = ",".join(row)
        path.write_text("\n".join([head, columns, *rows]) + "\n")

    def test_vector_off_the_tangent_plane_rejected(self, tmp_path, rng):
        path = tmp_path / "section.csv"
        self._write_normal_vector(path, 2.0, rng)
        with pytest.raises(ValueError, match="tangent plane"):
            read_section_csv(path)

    @pytest.mark.parametrize("radius", [0.1, 1.0, 1000.0])
    def test_normal_vector_rejected_at_radius(self, tmp_path, rng, radius):
        path = tmp_path / "section.csv"
        self._write_normal_vector(path, radius, rng)
        with pytest.raises(ValueError, match="tangent plane"):
            read_section_csv(path)

    @pytest.mark.parametrize("radius", [0.1, 1.0, 1000.0])
    def test_roundtrip_at_radius(self, tmp_path, rng, radius):
        # the tangency check scales with the radius, so written sections
        # load at every radius
        f = random_center(sphere(radius), 64, rng)
        s = random_section(f, rng, 0.2 * radius)
        path = tmp_path / "section.csv"
        write_section_csv(s, path)
        again = read_section_csv(path)
        assert np.array_equal(s.vectors, again.vectors)


_TRACE_HEAD = "step,energy,grad_norm,step_size\n"


class TestTraceCsv:
    def test_single_step_trace_two_lines(self, tmp_path):
        trace = DescentTrace(((0, 1.5, 0.1, 0.05),))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_text().count("\n") == 2

    def test_roundtrip_values_identical(self, tmp_path):
        f = sample_map(CIRCLE_ATLAS, T22, torus_loop((1, 0), waves=((0, 0.2, 0.4),)), 64)
        _, trace = descend(f, 40, 0.1)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert read_trace_csv(path).rows == trace.rows
        assert path.read_text().count("\n") == len(trace.rows) + 1

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "step,energy,grad,step_size\n0,1.5,0.1,0.05\n",
            _TRACE_HEAD,
            _TRACE_HEAD + "0,1.5\n",
            _TRACE_HEAD + "0,1.5,0.1,0.05,7\n",
            _TRACE_HEAD + "1_0,1.5,0.1,0.05\n",
            _TRACE_HEAD + "0,1.5,0.1,0.05\n0,1.4,0.1,0.1\n",
            _TRACE_HEAD + "0,nan,0.1,0.05\n",
            _TRACE_HEAD + "0,1.5,inf,0.05\n",
            _TRACE_HEAD + "0,1.5,0.1,nan\n",
        ],
        ids=["empty", "header", "no_rows", "two_fields", "five_fields", "step_not_int",
             "repeated_step", "nan_energy", "inf_grad_norm", "nan_step_size"],
    )
    def test_reader_rejects_bad_file(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace_csv(DescentTrace(()), tmp_path / "x.csv")


class TestConfig:
    def test_defaults_valid(self):
        ExperimentConfig()

    def test_resolution_floor(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(resolution=4)

    def test_order_cap(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(order=5)

    def test_load_from_json_with_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"resolution": 32, "seed": 5}))
        loaded = load_config(str(cfg), seed=9)
        assert loaded.resolution == 32
        assert loaded.seed == 9

    def test_unknown_field_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_field": 1}))
        with pytest.raises(ConfigError):
            load_config(str(cfg))


# check row -> (suite, the experiments function it folds, that function's
# result drawn from a list of residuals)
NAN_ROWS = {
    # one call for the whole row: a residual per trial (2) and target (2)
    "transition_cocycle": ("transitions", "cocycle_residuals", lambda r: np.reshape(r, (2, 2))),
    "ck_distance_symmetry": ("topology", "pseudometric_residuals", lambda r: (r.pop(0),) * 2),
    "metric_independence": ("transitions", "metric_independence_residuals", list),
    "taylor_quadratic": ("taylor", "taylor_quadratic_residual", lambda r: r.pop(0)),
}


class TestRunSuite:
    def test_taylor_suite_passes_and_reports(self, tmp_path):
        config = ExperimentConfig(resolution=32, trials=2, sections=1)
        status = run_suite(config, "taylor", tmp_path)
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_pass"]
        zero = [c for c in report["checks"] if c["check"] == "taylor_zero_displacement"]
        assert zero and zero[0]["residual"] == 0.0
        assert all("anchor" in c for c in report["checks"])
        assert (tmp_path / "metadata.json").exists()

    def test_redirected_output_is_not_kept(self, tmp_path):
        # a caller that redirects each run's output, as a benchmark loop does,
        # gets every stream back to free: nothing caches a stream it printed to
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            run_suite(ExperimentConfig(resolution=32, trials=2, sections=1), "taylor", tmp_path)
        assert stream.getvalue().startswith("PASS taylor_")
        ref = weakref.ref(stream)
        del stream
        gc.collect()
        assert ref() is None

    def test_reports_byte_identical_for_same_seed(self, tmp_path):
        # two runs in one process: nothing the first run leaves behind moves a byte
        # of the second's report or trace files
        small = ExperimentConfig(
            resolution=24, trials=1, sections=1, seed=3,
            descent_resolution=16, sphere_descent_resolution=16, descent_steps=10,
        )
        runs = [("topology", ExperimentConfig(resolution=32, trials=2, sections=1, seed=3))]
        runs += [(suite, small) for suite in ("taylor", "descent", "all")]
        for suite, config in runs:
            a, b = tmp_path / suite / "a", tmp_path / suite / "b"
            assert run_suite(config, suite, a) == run_suite(config, suite, b)
            names = sorted(p.name for p in a.iterdir())
            assert names == sorted(p.name for p in b.iterdir())
            assert ("torus_descent_trace.csv" in names) == (suite in ("descent", "all"))
            for name in names:
                if name != "metadata.json":
                    assert (a / name).read_bytes() == (b / name).read_bytes(), (suite, name)

    @pytest.mark.parametrize("suite", ["taylor", "descent", "all"])
    def test_thread_cap_keeps_reports_identical(self, tmp_path, suite):
        # the checks run in the calling thread; the one thread count left is the
        # BLAS library's, and capping it at one thread moves no report or trace
        # byte against two threads, each run in a fresh process
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({
            "resolution": 24, "trials": 1, "sections": 1, "seed": 3,
            "descent_resolution": 16, "sphere_descent_resolution": 16, "descent_steps": 10,
        }))
        src = str(Path(__file__).resolve().parents[1] / "src")
        runs = {}
        for cap in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=cap, OMP_NUM_THREADS=cap)
            out = tmp_path / f"cap{cap}"
            args = ["run", "--suite", suite, "--config", str(cfg), "--out", str(out)]
            result = subprocess.run(
                [sys.executable, "-m", "mapcalc.cli", *args], env=env, capture_output=True,
                text=True, timeout=120,
            )
            assert result.returncode in (0, 1), result.stderr
            runs[cap] = (result.returncode, out)
        (code1, one), (code2, two) = runs["1"], runs["2"]
        assert code1 == code2
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in two.iterdir())
        assert ("torus_descent_trace.csv" in names) == (suite != "taylor")
        for name in names:
            if name != "metadata.json":
                assert (one / name).read_bytes() == (two / name).read_bytes(), name

    def test_transitions_report_schema(self, tmp_path):
        config = ExperimentConfig(resolution=24, trials=1, sections=1)
        status = run_suite(config, "transitions", tmp_path)
        assert status == 0
        entries = json.loads((tmp_path / "transitions_report.json").read_text())
        assert entries
        for entry in entries:
            assert set(entry) == {"test", "max_residual", "tolerance", "pass"}
            assert entry["pass"]

    def test_descent_suite_reports_final_energy(self, tmp_path):
        config = ExperimentConfig(
            resolution=32, trials=1, sections=1,
            descent_resolution=48, descent_steps=900,
            sphere_descent_resolution=48,
        )
        status = run_suite(config, "descent", tmp_path)
        assert status == 0
        report = json.loads((tmp_path / "report.json").read_text())
        torus = [c for c in report["checks"] if c["check"] == "descent_torus_class_minimum"]
        assert torus and abs(torus[0]["final_energy"] - math.pi) < 1e-3
        assert (tmp_path / "torus_descent_trace.csv").exists()

    def test_failing_descent_demo_runs_once(self, monkeypatch):
        # the demo's exception is kept like a result: each descent row that
        # reads the torus demo gets it, and the demo runs once
        calls = []
        demo = experiments.torus_descent_demo

        def counted(*args):
            calls.append(args)
            return demo(*args)

        monkeypatch.setattr(experiments, "torus_descent_demo", counted)
        checks = build_suite(ExperimentConfig(descent_step_size=1e300), "descent", None)
        execute_checks(checks)
        assert len(calls) == 1
        torus_error = "StepOutOfChart: no admissible decreasing step at iterate 0 (gradient 0.203)"
        assert {c.name: c.error for c in checks} == {
            "descent_torus_class_minimum": torus_error,
            "descent_sphere_contractible":
                "StepOutOfChart: no admissible decreasing step at iterate 0 (gradient 0.259)",
            "descent_monotone": torus_error,
            "descent_homotopy_class": torus_error,
        }

    def test_all_is_the_suites_in_order(self):
        config = ExperimentConfig()
        checks = build_suite(config, "all", None)
        by_suite = {suite: build_suite(config, suite, None) for suite in SUITES}
        assert [c.name for c in checks] == [
            c.name for suite in SUITES for c in by_suite[suite]
        ]
        for suite, built in by_suite.items():
            assert built and all(c.suite == suite for c in built)

    def test_failing_checks_become_strict_error_rows(self, tmp_path, monkeypatch):
        def raise_value_error(*args, **kwargs):
            raise ValueError("broken residual")

        def raise_mapcalc_error(*args, **kwargs):
            raise WellDefinednessViolated("off the chart")

        monkeypatch.setattr(experiments, "cocycle_residuals", raise_value_error)
        monkeypatch.setattr(experiments, "derivative_identity_residuals", raise_mapcalc_error)
        monkeypatch.setattr(
            experiments, "metric_independence_residuals", lambda *a, **k: [math.nan]
        )
        config = ExperimentConfig(resolution=24, trials=1, sections=1)
        assert run_suite(config, "transitions", tmp_path) == 1

        def strict(name):
            def reject(constant):
                raise ValueError(f"non-strict JSON constant {constant}")

            return json.loads((tmp_path / name).read_text(), parse_constant=reject)

        rows = {c["check"]: c for c in strict("report.json")["checks"]}
        entries = {e["test"]: e for e in strict("transitions_report.json")}
        assert set(rows) == set(entries)
        failing = {
            "transition_cocycle": "ValueError",
            "transition_derivative_sphere": "WellDefinednessViolated",
            "transition_derivative_torus": "WellDefinednessViolated",
            "metric_independence": "non-finite",
        }
        for name, text in failing.items():
            for row, residual in ((rows[name], "residual"), (entries[name], "max_residual")):
                assert row[residual] is None and row["pass"] is False
                assert text in row["error"]
        chain = rows["transition_chain_rule"]
        assert chain["pass"] and "error" not in chain

    def test_metadata_times_each_check_and_rates_failures(self, tmp_path, monkeypatch, capsys):
        def raise_mapcalc_error(*args, **kwargs):
            raise WellDefinednessViolated("off the chart")

        # the cocycle fails at 2.5 times its tolerance of 1e-9
        monkeypatch.setattr(
            experiments, "cocycle_residuals", lambda *a, **k: np.full((1, 2), 2.5e-9)
        )
        monkeypatch.setattr(experiments, "derivative_identity_residuals", raise_mapcalc_error)
        monkeypatch.setattr(experiments, "metric_independence_residuals", lambda *a, **k: [1e-6])
        config = ExperimentConfig(resolution=24, trials=1, sections=1)
        assert run_suite(config, "transitions", tmp_path) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert not any({"seconds", "over_tolerance"} & set(row) for row in report["checks"])
        meta = json.loads((tmp_path / "metadata.json").read_text())
        rows = {row["check"]: row for row in meta["checks"]}
        assert list(rows) == [row["check"] for row in report["checks"]]
        assert all(row["seconds"] >= 0.0 for row in rows.values())
        # only a failing row with a residual has a ratio; error rows have none
        assert {name for name, row in rows.items() if "over_tolerance" in row} == {
            "transition_cocycle"
        }
        assert rows["transition_cocycle"]["over_tolerance"] == 2.5e-9 / 1e-9
        out = capsys.readouterr().out
        assert "FAIL transition_cocycle: residual=2.500e-09 tol=1.0e-09 (2.5x tol)" in out
        assert "FAIL transition_derivative_sphere: residual=none tol=1.0e-05 (" in out
        assert "PASS metric_independence: residual=1.000e-06 tol=1.0e-04\n" in out

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("name", list(NAN_ROWS))
    def test_nan_residual_fails_its_row(self, monkeypatch, name, position):
        # a row folds its residuals into one; max(0.0, nan) is 0.0 and
        # max(r, nan) is r, so the fold must keep a NaN wherever it comes
        suite, function, result = NAN_ROWS[name]
        residuals = [1e-16] * 4
        residuals[position] = math.nan
        monkeypatch.setattr(experiments, function, lambda *a, **k: result(residuals))
        config = ExperimentConfig(resolution=16, trials=2, sections=2)
        checks = [c for c in build_suite(config, suite, None) if c.name == name]
        execute_checks(checks)
        row = checks[0].as_report()
        assert row["residual"] is None and row["pass"] is False
        assert "non-finite" in row["error"]

    @staticmethod
    def nth_call(calls, n, value):
        """``calls`` with the result of its ``n``-th call passed through ``value``."""
        count = itertools.count(1)
        return lambda *args: value(calls(*args)) if next(count) == n else calls(*args)

    @pytest.mark.parametrize("call", [1, 3, 4])
    def test_nan_distance_fails_the_triangle_row(self, monkeypatch, call):
        # the violation d(f, h) - d(f, g) - d(g, h) is NaN when d(f, g), the
        # third or the fourth distance of the first trial is; a clamp at zero
        # read it as no violation
        monkeypatch.setattr(experiments, "jets_distance", self.nth_call(
            experiments.jets_distance, call, lambda d: math.nan
        ))
        checks = [c for c in build_suite(ExperimentConfig(), "topology", None)
                  if c.name == "ck_distance_triangle"]
        execute_checks(checks)
        row = checks[0].as_report()
        assert row["residual"] is None and row["pass"] is False
        assert "non-finite" in row["error"]

    @pytest.mark.parametrize("call", [1, 5, 6, 7])
    def test_nan_section_norm_fails_the_triangle_row(self, monkeypatch, call):
        # calls 1-2, 5-6 and 7-8 trivialize s, s + t and t on each of the two
        # charts, for the norms of the triangle residual (s's norm also
        # serves the homogeneity residual); a NaN component in any of them
        # makes that residual NaN
        monkeypatch.setattr(topology, "section_rep", self.nth_call(
            topology.section_rep, call, lambda rep: rep * math.nan
        ))
        checks = [c for c in build_suite(ExperimentConfig(), "topology", None)
                  if c.name == "section_norm_triangle"]
        execute_checks(checks)
        row = checks[0].as_report()
        assert row["residual"] is None and row["pass"] is False
        assert "non-finite" in row["error"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_witness_is_an_error_row(self, monkeypatch, bad):
        # the drops max(0.0, a - b) alone read a NaN witness as no drop at all
        monkeypatch.setattr(experiments, "witness_ladder", lambda *a, **k: [1.0, bad, 2.0])
        checks = [c for c in build_suite(ExperimentConfig(), "topology", None)
                  if c.name == "composition_witness_monotone"]
        execute_checks(checks)
        row = checks[0].as_report()
        assert row["residual"] is None and row["pass"] is False
        assert "non-finite" in row["error"]


BAD_CONFIGS = {
    "resolution_below_floor": ({"resolution": 4}, []),
    "negative_seed": ({}, ["--seed", "-1"]),
    "float_count": ({"trials": 2.5}, []),
    "bool_count": ({"sections": True}, []),
    "order_above_two": ({"order": 4}, []),
    "non_positive_conformal": ({"conformal": "z-5"}, []),
    "conformal_name_error": ({"conformal": "__import__"}, []),
    "conformal_attribute_chain": (
        {"conformal": "1 + 0*x + 0*(().__class__.__base__ is None)"}, []
    ),
    "nan_sphere_radius": ({"sphere_radius": math.nan}, []),
    "infinite_descent_step_size": ({"descent_step_size": math.inf}, []),
    "negative_delta_factor": ({"delta_factor": -1}, []),
    "delta_factor_above_six": ({"delta_factor": 7}, []),
    "zero_epsilon": ({"epsilon": 0}, []),
    "suites_field": ({"suites": ["taylor"]}, []),
    "empty_torus_periods": ({"torus_periods": []}, []),
    "complex_conformal": ({"conformal": "1 + 0*x + (-1)**0.5"}, []),
    "infinite_conformal": ({"conformal": "1e308*1e308"}, []),
    "bool_torus_period": ({"torus_periods": [True, 2 * math.pi]}, []),
    "string_torus_period": ({"torus_periods": ["1", 2 * math.pi]}, []),
    "list_config": ([1, 2], []),
    "null_config": (None, []),
    "string_config": ("x", []),
    "number_config": (3, []),
}


def _main(monkeypatch, *args: str) -> int:
    """``main`` run on the command line ``mapcalc *args``."""
    monkeypatch.setattr(sys, "argv", ["mapcalc", *args])
    return main()


# command lines the parser refuses with status 2, and a request for help
USAGE = {
    "unknown_suite": (["run", "--suite", "bogus"], 2),
    "non_integer_seed": (["run", "--seed", "x"], 2),
    "unknown_command": (["bogus"], 2),
    "unknown_option": (["run", "--nope", "1"], 2),
    "abbreviated_option": (["run", "--res", "64"], 2),
    "run_option_on_descend": (["descend", "--seed", "3"], 2),
    "no_command": ([], 2),
    "help": (["run", "--help"], 0),
}


class TestCliCommands:
    @pytest.mark.parametrize("data, flags", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
    def test_malformed_config_exits_2(self, tmp_path, monkeypatch, data, flags):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        args = ["run", "--suite", "taylor", "--config", str(cfg), "--out", str(tmp_path)]
        assert _main(monkeypatch, *args, *flags) == 2

    @pytest.mark.parametrize("args, status", list(USAGE.values()), ids=list(USAGE))
    def test_usage(self, monkeypatch, capsys, args, status):
        assert _main(monkeypatch, *args) == status
        captured = capsys.readouterr()
        assert "usage: mapcalc" in captured.out + captured.err
        assert "Traceback" not in captured.err

    def test_import_loads_no_click(self):
        # numpy is the only runtime dependency
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = "import sys, mapcalc.cli; print('click' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )
        assert result.stdout == "False\n"

    def test_failed_trace_write_exits_3(self, tmp_path, monkeypatch, capsys):
        # the descent trace is an output file like the reports: a write that
        # fails is an I/O error, not a failing check
        (tmp_path / "torus_descent_trace.csv").mkdir()
        assert _main(monkeypatch, "run", "--suite", "descent", "--out", str(tmp_path)) == 3
        assert "cannot write report" in capsys.readouterr().err
        assert json.loads((tmp_path / "report.json").read_text())["all_pass"]

    def test_bool_torus_period_exits_2_with_one_config_error_line(
        self, tmp_path, monkeypatch, capsys
    ):
        # a JSON true would otherwise run as a period of 1.0
        cfg = tmp_path / "periods.json"
        cfg.write_text(json.dumps({"torus_periods": [True, 6.283185307179586]}))
        args = ["run", "--suite", "charts", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert _main(monkeypatch, *args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "config error: bad torus periods (True, 6.283185307179586): "
            "torus period must be a finite number, not True"
        ]

    def test_descend_non_object_config_exits_2(self, tmp_path, monkeypatch):
        cfg = tmp_path / "list.json"
        cfg.write_text(json.dumps([1, 2]))
        out = tmp_path / "out"
        assert _main(monkeypatch, "descend", "--config", str(cfg), "--out", str(out)) == 2
        assert not out.exists()

    def test_descend_step_out_of_every_chart_exits_2_without_traceback(self, tmp_path):
        # a well-typed first step that 30 halvings cannot bring inside the chart
        cfg = tmp_path / "huge_step.json"
        cfg.write_text(json.dumps({"descent_step_size": 1e300}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        args = ["descend", "--config", str(cfg), "--out", str(tmp_path / "out")]
        result = subprocess.run(
            [sys.executable, "-m", "mapcalc.cli", *args], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.count("\n") == 1 and "StepOutOfChart" in result.stderr

    def test_conformal_power_tower_exits_2_quickly(self, tmp_path):
        # 9**9**9 as a Python integer has hundreds of millions of digits
        cfg = tmp_path / "tower.json"
        cfg.write_text(json.dumps({"conformal": "1 + 0*x + 0*9**9**9"}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        args = ["run", "--suite", "taylor", "--config", str(cfg), "--out", str(tmp_path)]
        result = subprocess.run(
            [sys.executable, "-m", "mapcalc.cli", *args], env=env, capture_output=True, timeout=60
        )
        assert result.returncode == 2

    def test_taylor_suite_exit_0(self, tmp_path, monkeypatch, capsys):
        assert _main(monkeypatch, "run", "--suite", "taylor", "--out", str(tmp_path)) == 0
        assert "taylor_zero_displacement" in capsys.readouterr().out

    def test_unwritable_out_exits_3(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert _main(monkeypatch, "run", "--suite", "taylor", "--out", str(blocker / "sub")) == 3

    def test_descend_command_writes_outputs(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"descent_resolution": 48, "descent_steps": 400}))
        args = ["descend", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert _main(monkeypatch, *args) == 0
        report = json.loads((tmp_path / "out/descent_report.json").read_text())
        assert abs(report["final_energy"] - math.pi) < 5e-2
        assert (tmp_path / "out/descent_trace.csv").exists()
        assert (tmp_path / "out/descent_final_map.csv").exists()

    def test_descend_demo_ignores_torus_periods(self, tmp_path, monkeypatch):
        # the demo loop closes only on the 2 pi torus, whose energy minimum is pi
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"torus_periods": [5.0, 7.0]}))
        for name, args in (("default", []), ("periods", ["--config", str(cfg)])):
            assert _main(monkeypatch, "descend", *args, "--out", str(tmp_path / name)) == 0
        for name in ("descent_trace.csv", "descent_final_map.csv", "descent_report.json"):
            assert (tmp_path / "default" / name).read_bytes() == (
                tmp_path / "periods" / name
            ).read_bytes()
        report = json.loads((tmp_path / "default/descent_report.json").read_text())
        assert abs(report["final_energy"] - report["target_energy"]) < 1e-3


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
_FUZZED_FIELDS = [f.name for f in fields(ExperimentConfig) if f.name != "conformal"]


@settings(max_examples=300, deadline=None)
@given(
    data=st.dictionaries(
        st.sampled_from(_FUZZED_FIELDS), st.floats() | st.integers() | _JSON_VALUES, max_size=3
    )
)
def test_load_config_fuzz(tmp_path_factory, data):
    """Arbitrary JSON field values, NaN and infinities included, give a
    ConfigError or a config with finite floats in range; nothing else."""
    path = tmp_path_factory.getbasetemp() / "fuzzed_config.json"
    path.write_text(json.dumps(data))
    try:
        config = load_config(str(path))
    except ConfigError:
        return
    floats = [getattr(config, f.name) for f in fields(config) if f.type == "float"]
    assert all(math.isfinite(v) for v in [*floats, *config.torus_periods])
    assert 0 < config.delta_factor < 6 and config.epsilon > 0
