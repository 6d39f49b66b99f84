"""Acceptance suite: the `mapcalc run` check rows at pinned configs.

Each criterion is a config (sizes and seed), the names of the check-table
rows it asserts, and a wall-time budget.  The rows are the CLI's own, built
by `cli.build_suite` and run by `cli.execute_checks`, so every residual and
tolerance has one definition.  Each row prints one machine-readable line.
"""

import math
import time
from typing import NamedTuple

import pytest

from mapcalc import cli


class Criterion(NamedTuple):
    num: int
    suite: str
    config: dict  # load_config overrides
    rows: tuple[str, ...]  # in table order
    budget: float = math.inf  # wall seconds


ROUNDTRIPS = tuple(f"chart_roundtrip_{m}_k{k}" for k in (0, 2) for m in ("sphere", "torus"))
OMEGA = tuple(f"omega_derivative_{name}_r{r}" for name in ("square", "sinx_times_y", "exp")
              for r in (0, 1, 2))
# rows held to an exact zero, more strictly than their table tolerance
EXACT = {"taylor_zero_displacement", "composition_witness_monotone", "descent_monotone"}

CRITERIA = [
    Criterion(1, "charts", dict(seed=101, resolution=256, trials=500),
              ROUNDTRIPS + ("overlap_consistency", "chart_homeo_rate"), 60.0),
    Criterion(2, "transitions", dict(seed=102, resolution=256, trials=100),
              ("transition_derivative_sphere", "transition_derivative_torus",
               "transition_chain_rule"), 120.0),
    Criterion(3, "transitions", dict(seed=103, resolution=128, trials=50),
              ("transition_cocycle",)),
    Criterion(4, "omega", dict(seed=104), OMEGA),
    Criterion(5, "taylor", dict(seed=105),
              ("taylor_zero_displacement", "taylor_identity", "taylor_quadratic")),
    Criterion(6, "topology", dict(seed=106),
              ("composition_lipschitz", "composition_witness_monotone")),
    Criterion(7, "topology", dict(seed=107, resolution=128, epsilon=2e-2),
              ("ck_distance_symmetry", "ck_distance_triangle", "section_norm_homogeneity",
               "section_norm_triangle", "neighborhood_basis")),
    Criterion(8, "descent", dict(seed=108, descent_resolution=128, descent_steps=5000,
                                 sphere_descent_resolution=64),
              ("descent_torus_class_minimum", "descent_sphere_contractible", "descent_monotone",
               "descent_homotopy_class"), 300.0),
    Criterion(9, "transitions", dict(seed=109, resolution=96, sections=20),
              ("metric_independence",)),
    Criterion(10, "charts", dict(seed=110), ("jet_convergence_order",)),
]


@pytest.mark.parametrize("criterion", CRITERIA, ids=[f"{c.num:02d}" for c in CRITERIA])
def test_criterion(criterion):
    config = cli.load_config(None, **criterion.config)
    checks = [c for c in cli.build_suite(config, criterion.suite, None) if c.name in criterion.rows]
    # a renamed row fails here instead of silently dropping out
    assert tuple(c.name for c in checks) == criterion.rows
    start = time.perf_counter()
    cli.execute_checks(checks)
    elapsed = time.perf_counter() - start
    failed = []
    for check in checks:
        ok = check.passed and (check.name not in EXACT or check.residual == 0.0)
        residual = "none" if check.residual is None else f"{check.residual:.3e}"
        error = "" if check.error is None else f" ({check.error})"
        print(f"criterion {criterion.num:2d} [{check.name}]: {'PASS' if ok else 'FAIL'} "
              f"residual={residual} tolerance={check.tolerance:.1e}{error}")
        if not ok:
            failed.append(check.name)
    assert not failed, f"criterion {criterion.num} failed: {failed}"
    assert elapsed < criterion.budget, f"criterion {criterion.num} took {elapsed:.1f}s"


def test_every_check_row_has_a_criterion():
    built = [c.name for c in cli.build_suite(cli.load_config(None), "all", None)]
    assert sorted(row for c in CRITERIA for row in c.rows) == sorted(built)
