"""Tests of the benchmark itself: tracer hygiene, the correctness gate and
the metric names.

Run with: PYTHONPATH=src python -m pytest perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from metrics import CHECK_NAMES, END_TO_END, PER_LAYER  # noqa: E402
from run import Pass, judge  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ROOT, WORKLOADS, use_source_tree  # noqa: E402

use_source_tree()

import mapcalc  # noqa: E402
from mapcalc import charts, cli, energy, manifolds  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _small_config():
    return cli.load_config(
        None, descent_resolution=16, sphere_descent_resolution=16, descent_steps=10
    )


def _outputs(out_dir: Path) -> dict[str, bytes]:
    return {
        p.relative_to(out_dir).as_posix(): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "metadata.json"
    }


def _run(config, out_dir: Path) -> dict[str, bytes]:
    for suite in ("descent", "taylor"):
        cli.run_suite(config, suite, out_dir / suite)
    return _outputs(out_dir)


def test_tracer_restores_originals_and_keeps_report_bytes(tmp_path):
    config = _small_config()
    plain = _run(config, tmp_path / "plain")
    originals = {
        (module, name): getattr(module, name)
        for module, name in [
            (manifolds, "log_points"),
            (energy, "log_points"),
            (charts, "exp_points"),
            (energy, "chart_inverse"),
            (mapcalc, "chart_inverse"),
            (cli, "build_suite"),
            (cli, "canonical_json"),
        ]
    }
    call = manifolds.ConformalFactor.__call__

    tracer = Tracer()
    with tracer:
        # callers that imported a function by name see the traced one too
        for (module, name), fn in originals.items():
            assert getattr(module, name) is not fn
        traced = _run(config, tmp_path / "traced")

    assert traced == plain
    assert "taylor/report.json" in traced and "descent/torus_descent_trace.csv" in traced
    assert tracer.restored()
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn
    assert manifolds.ConformalFactor.__call__ is call

    values = tracer.layer_metrics(0.0)
    assert values["energy.descend.iters"] == 2 * config.descent_steps
    assert values["energy.descend.cap_hits"] == 2
    assert values["energy.descend.trials"] >= values["energy.descend.iters"]
    assert values["energy.energy_gradient.calls"] == 2 * config.descent_steps
    assert values["cli.check.taylor_identity.s"] > 0.0
    assert set(values) == {name for name, _, _ in PER_LAYER}


def test_tracer_classifies_geodesics_by_target():
    round_s = manifolds.sphere(1.0)
    conformal = manifolds.sphere(1.0, conformal="exp(0.3*z)")
    torus = manifolds.flat_torus(1.0, 1.0)
    base = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    vec = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]])
    flat = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])

    expected = [manifolds.exp_points(m, b, v)
                for m, b, v in ((round_s, base, vec), (conformal, base, vec), (torus, flat, flat))]
    with Tracer() as tracer:
        got = [manifolds.exp_points(m, b, v)
               for m, b, v in ((round_s, base, vec), (conformal, base, vec), (torus, flat, flat))]
    for a, b in zip(expected, got):
        np.testing.assert_array_equal(a, b)
    values = tracer.layer_metrics(0.0)
    assert values["manifolds.exp.round.calls"] == 1
    assert values["manifolds.exp.conformal.calls"] == 1
    assert values["manifolds.exp.torus.calls"] == 1
    assert values["manifolds.exp.round.nodes"] == 2
    assert values["manifolds.exp.torus.nodes"] == 3
    assert values["manifolds.conformal_eval.calls"] > 0


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans[:] = [
        ["energy.descend", 0.0, 10.0, -1],
        ["energy.dirichlet_energy", 1.0, 2.0, 0],
        ["energy.dirichlet_energy", 3.0, 5.0, 0],
        ["energy.loop_values", 3.5, 4.0, 2],
    ]
    values = tracer.layer_metrics(0.5)
    assert values["energy.dirichlet_energy.self_s"] == pytest.approx(2.5)
    assert values["energy.loop_values.self_s"] == pytest.approx(0.5)
    assert values["energy.descend.trials"] == 1  # the first evaluation is the start
    assert values["trace.overhead_s"] == 0.5


def test_gate_rejects_changed_bytes_and_new_failures():
    ok = {"check": "a", "pass": True, "residual": 0.0}
    known = {"check": "k", "pass": False, "residual": 1.0}
    new = {"check": "b", "pass": False, "residual": 2.0}
    ref = {"s/report.json": b"1"}

    verdict = judge([Pass(1.0, ref, [ok, known]), Pass(1.0, ref, [ok, known])],
                    ref, frozenset({"k"}))
    assert not verdict.problems
    assert (verdict.checks, verdict.failed_checks, verdict.failed_passes) == (4, 2, 0)

    verdict = judge([Pass(1.0, ref, [ok]), Pass(1.0, {"s/report.json": b"2"}, [ok])],
                    ref, frozenset())
    assert verdict.failed_passes == 1 and verdict.problems

    verdict = judge([Pass(1.0, ref, [ok, new])], ref, frozenset({"k"}))
    assert verdict.failed_passes == 0 and verdict.problems

    verdict = judge([Pass(float("nan"), error="boom")], {}, frozenset())
    assert verdict.failed_passes == 1 and verdict.problems


def test_metric_names_and_counts():
    names = [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    assert "setup_s" in dict((m[0], m) for m in END_TO_END)


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_check_names_match_the_suites():
    config = cli.load_config(None)
    built = [c.name for suite in cli.SUITES for c in cli.build_suite(config, suite, None)]
    assert sorted(built) == sorted(CHECK_NAMES)
