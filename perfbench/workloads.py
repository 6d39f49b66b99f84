"""Workloads of the mapcalc benchmark and the set-up they share.

Each workload is a list of suites run through ``mapcalc.cli.run_suite``
with config overrides; ``--seed`` goes into ``config.seed``.  Set-up is
everything a ``mapcalc run`` invocation does before its first check:
imports, config load and target construction, including validation of
the conformal factor.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One thread for mapcalc's check pool and for every BLAS/OpenMP pool.
PINNED_ENV = {
    "MAPCALC_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    suites: tuple[str, ...]
    overrides: dict = field(default_factory=dict)
    # checks that fail on the unmodified code; they count against pass_frac
    # but do not make the run incorrect
    known_failures: frozenset = frozenset()


WORKLOADS = {
    "transitions_r64": Workload(("transitions",)),
    "descent_r96": Workload(("descent",)),
    "jets_r4096": Workload(
        ("charts", "topology", "omega", "taylor"),
        {"resolution": 4096, "trials": 40},
        frozenset({"section_norm_homogeneity"}),
    ),
}


class SourceMissing(RuntimeError):
    pass


def pin_environment() -> None:
    """Pin thread pools; must run before numpy is imported."""
    os.environ.update(PINNED_ENV)


def use_source_tree() -> None:
    """Import mapcalc from ``src/`` of this checkout, never from elsewhere."""
    if not (SRC / "mapcalc" / "__init__.py").is_file():
        raise SourceMissing(f"no mapcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mapcalc

    if not Path(mapcalc.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"mapcalc was imported from {mapcalc.__file__}, not {SRC}")


def prepare(name: str, seed: int):
    """Load the workload's config and construct its targets."""
    from mapcalc.cli import load_config
    from mapcalc.manifolds import sphere

    workload = WORKLOADS[name]
    config = load_config(None, seed=seed, **workload.overrides)
    _ = (config.sphere, config.torus)
    sphere(config.sphere_radius, conformal=config.conformal)
    return config
