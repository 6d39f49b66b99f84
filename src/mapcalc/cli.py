"""Command-line harness: verification suites, descent demos, and reports.

Reports are deterministic for a fixed config and seed: the JSON report
carries only check results, while wall-clock metadata goes to a separate
file.  Exit codes: 0 all checks pass, 1 a check failed, 2 config error,
3 I/O error.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cache, reduce
from pathlib import Path

import click
import numpy as np

from . import experiments as ex
from .errors import ConfigError, MapcalcError
from .io import canonical_json, write_map_csv, write_trace_csv
from .manifolds import flat_torus, sphere

SUITES = ("charts", "topology", "omega", "taylor", "transitions", "descent")


@dataclass(frozen=True)
class ExperimentConfig:
    resolution: int = 64
    order: int = 2
    seed: int = 0
    trials: int = 10
    sections: int = 5
    sphere_radius: float = 1.0
    torus_periods: tuple[float, float] = (2 * math.pi, 2 * math.pi)
    conformal: str = ex.DEFAULT_CONFORMAL_EXPR
    delta_factor: float = 0.4
    epsilon: float = 1e-2
    descent_resolution: int = 96
    descent_steps: int = 2500
    descent_step_size: float = 0.1
    sphere_descent_resolution: int = 64
    out_dir: str = "reports"
    suites: tuple[str, ...] = SUITES

    def __post_init__(self):
        if self.resolution < 8 or self.descent_resolution < 8:
            raise ConfigError("resolution must be at least 8")
        if not 0 <= self.order <= 4:
            raise ConfigError("derivative order must lie in [0, 4]")
        if self.sphere_radius <= 0 or any(p <= 0 for p in self.torus_periods):
            raise ConfigError("manifold dimensions must be positive")
        if self.trials < 1 or self.sections < 1:
            raise ConfigError("counts must be positive")
        if self.descent_steps < 1 or self.descent_step_size <= 0:
            raise ConfigError("descent parameters must be positive")
        unknown = set(self.suites) - set(SUITES)
        if unknown:
            raise ConfigError(f"unknown suites: {sorted(unknown)}")

    @property
    def sphere(self):
        return sphere(self.sphere_radius)

    @property
    def torus(self):
        return flat_torus(*self.torus_periods)


def load_config(path: str | None, **overrides) -> ExperimentConfig:
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
    data.update({k: v for k, v in overrides.items() if v is not None})
    if "torus_periods" in data:
        data["torus_periods"] = tuple(data["torus_periods"])
    if "suites" in data and not isinstance(data["suites"], tuple):
        data["suites"] = tuple(data["suites"])
    try:
        return ExperimentConfig(**data)
    except TypeError as err:
        raise ConfigError(f"bad config field: {err}") from err


@dataclass
class Check:
    name: str
    anchor: str
    tolerance: float
    thunk: object
    residual: float = math.nan
    error: str | None = None
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.error is None and self.residual < self.tolerance

    def as_report(self) -> dict:
        entry = {
            "check": self.name,
            "anchor": self.anchor,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        entry.update(self.extras)
        if self.error is not None:
            entry["error"] = self.error
        return entry


def _rng(config: ExperimentConfig, tag: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, tag])


def _trials(config: ExperimentConfig, tag: int, count: int | None = None):
    """A check's one seeded generator, handed out once per trial."""
    return itertools.repeat(_rng(config, tag), config.trials if count is None else count)


def _worst(residuals) -> float:
    """Largest residual, folded as max(worst, r) from 0.0 in iteration order."""
    return reduce(max, residuals, 0.0)


def _once(thunk):
    """Run a thunk at most once; concurrent callers wait for its result."""
    lock = threading.Lock()
    cached = cache(thunk)

    def run():
        with lock:
            return cached()

    return run


# ---------------------------------------------------------------------------
# suite definitions


def _charts_checks(config: ExperimentConfig) -> list[Check]:
    def roundtrip(m, k, tag):
        return lambda: _worst(
            ex.roundtrip_residual(
                *ex.random_pair(m, config.resolution, rng, delta_factor=config.delta_factor), k
            )
            for rng in _trials(config, tag)
        )

    def overlap():
        from .atlas import CIRCLE_ATLAS, overlap_residual, sample_map
        from .maps import great_circle

        f = sample_map(CIRCLE_ATLAS, config.sphere, great_circle(config.sphere_radius),
                       config.resolution)
        return overlap_residual(f)

    def convergence():
        ratio = ex.jet_convergence_ratio()
        return abs(math.log2(ratio / 16.0))

    def homeo():
        rng = _rng(config, 5)
        f = ex.random_center(config.sphere, config.resolution, rng)
        fwd, inv = ex.homeo_rate_ratios(f, rng, k=min(config.order, 2))
        return _worst(abs(math.log2(r / fam[0])) for fam in (fwd, inv) for r in fam[1:])

    return [
        Check("chart_roundtrip_sphere_k0", "phi_f^{-1}(phi_f(g)) = g", 1e-9,
              roundtrip(config.sphere, 0, 1)),
        Check("chart_roundtrip_torus_k0", "phi_f^{-1}(phi_f(g)) = g", 1e-9,
              roundtrip(config.torus, 0, 2)),
        Check("chart_roundtrip_sphere_k2", "phi_f^{-1}(phi_f(g)) = g (order-2 jets)", 1e-5,
              roundtrip(config.sphere, 2, 3)),
        Check("chart_roundtrip_torus_k2", "phi_f^{-1}(phi_f(g)) = g (order-2 jets)", 1e-5,
              roundtrip(config.torus, 2, 4)),
        Check("overlap_consistency", "single-valuedness across chart overlaps", 1e-10,
              overlap),
        Check("jet_convergence_order", "chart jets converge at O(h^4)", 1.0, convergence),
        Check("chart_homeo_rate", "phi_f and phi_f^{-1} are Lipschitz at the center", 1.0,
              homeo),
    ]


def _topology_checks(config: ExperimentConfig) -> list[Check]:
    k = min(config.order, 2)

    def sym():
        return max(
            ex.pseudometric_residuals(config.torus, config.resolution, _rng(config, 11), k)[0],
            ex.pseudometric_residuals(config.sphere, config.resolution, _rng(config, 12), k)[0],
        )

    def tri():
        return max(
            ex.pseudometric_residuals(config.torus, config.resolution, _rng(config, 13), k)[1],
            ex.pseudometric_residuals(config.sphere, config.resolution, _rng(config, 14), k)[1],
        )

    def hom():
        return ex.norm_axiom_residuals(config.sphere, config.resolution, _rng(config, 15), k)[0]

    def ntri():
        return ex.norm_axiom_residuals(config.sphere, config.resolution, _rng(config, 16), k)[1]

    def basis():
        return float(
            ex.basis_convergence_failures(
                config.torus, config.resolution, _rng(config, 17),
                epsilon=config.epsilon,
            )
        )

    def ladder():
        case = ex.composition_probe_case(_rng(config, 18))
        values = ex.witness_ladder(
            lambda y: y**2, case["f1"], case["samples"], (0.1, 0.5, 1.0), k=1,
            box=case["box"]
        )
        drops = [max(0.0, values[i] - values[i + 1]) for i in range(len(values) - 1)]
        return max(drops, default=0.0)

    return [
        Check("ck_distance_symmetry", "d_k(f, g) = d_k(g, f) on a fixed cover", 1e-10, sym),
        Check("ck_distance_triangle", "d_k(f, h) <= d_k(f, g) + d_k(g, h)", 1e-10, tri),
        Check("section_norm_homogeneity", "|a s| = |a| |s|", 1e-12, hom),
        Check("section_norm_triangle", "|s + t| <= |s| + |t|", 1e-12, ntri),
        Check("neighborhood_basis", "shrinking families enter every subbasis element", 0.5,
              basis),
        Check("composition_lipschitz", "k = 0 estimate bounded by the Lipschitz constant",
              1e-9, ex.lipschitz_probe_residual),
        Check("composition_witness_monotone", "estimate constant non-decreasing in R",
              1e-12, ladder),
    ]


def _omega_checks(config: ExperimentConfig) -> list[Check]:
    checks = []
    f, h = ex.omega_test_functions()
    for name, kernel in ex.standard_kernels().items():
        for r in (0, 1, 2):
            def thunk(kernel=kernel, r=r):
                return ex.omega_fd_residual(kernel, f, h, r)

            checks.append(
                Check(
                    f"omega_derivative_{name}_r{r}",
                    "D(Omega_g) = A_1 . Omega_{D_2 g}",
                    1e-5,
                    thunk,
                )
            )
    return checks


def _taylor_checks(config: ExperimentConfig) -> list[Check]:
    from .charts import taylor_remainder

    cases = ex.taylor_cases()

    def zero_disp():
        return _worst(
            abs(float(np.max(np.atleast_1d(taylor_remainder(data, [0.3], [0.0])))))
            for data in cases.values()
        )

    def identity():
        return _worst(ex.taylor_identity_residual(data, [0.3], [0.2]) for data in cases.values())

    def quadratic():
        return ex.taylor_quadratic_residual(0.7, 0.25)

    return [
        Check("taylor_zero_displacement", "R(u,0)=0", 1e-15, zero_disp),
        Check("taylor_identity", "f(u+h) = f(u) + sum D^i f(u) h^i / i! + R(u,h) h^r",
              1e-10, identity),
        Check("taylor_quadratic", "quadratic case gives R(u,h) = h", 1e-12, quadratic),
    ]


def _transitions_checks(config: ExperimentConfig) -> list[Check]:
    res = config.resolution

    def cocycle():
        return _worst(
            ex.cocycle_residual(m, res, rng)
            for rng in _trials(config, 31)
            for m in (config.sphere, config.torus)
        )

    def derivative_sphere():
        return _worst(
            ex.derivative_identity_residual(config.sphere, res, rng)[1]
            for rng in _trials(config, 32)
        )

    def derivative_torus():
        return _worst(
            ex.derivative_identity_residual(config.torus, res, rng)[0]
            for rng in _trials(config, 33)
        )

    def chain():
        return _worst(
            ex.chain_rule_residual(config.sphere, res, rng)
            for rng in _trials(config, 34, max(1, config.trials // 2))
        )

    def metric():
        rng = _rng(config, 35)
        residuals = ex.metric_independence_residuals(
            config.resolution, rng, n_sections=config.sections,
            conformal_expr=config.conformal,
        )
        return max(residuals)

    return [
        Check("transition_cocycle", "transitions compose along chart triples", 1e-9, cocycle),
        Check("transition_derivative_sphere",
              "D(phi_g . phi_f^{-1})_{s0} s acts by the fiber derivative", 1e-5,
              derivative_sphere),
        Check("transition_derivative_torus",
              "flat transitions differentiate to the identity", 1e-12, derivative_torus),
        Check("transition_chain_rule", "fiber derivatives compose along chart triples",
              1e-5, chain),
        Check("metric_independence", "round and conformal charts are smoothly compatible",
              1e-4, metric),
    ]


def _descent_checks(config: ExperimentConfig, out_dir: Path | None) -> list[Check]:
    # each demo runs once, whichever of the four checks asks first
    torus_run = _once(lambda: ex.torus_descent_demo(
        config.descent_resolution, config.descent_steps, config.descent_step_size
    ))
    sphere_run = _once(lambda: ex.sphere_descent_demo(
        config.sphere_descent_resolution, config.descent_steps, config.descent_step_size
    ))
    checks: list[Check] = []

    def torus_demo():
        energy = torus_run()[0]
        checks[0].extras["final_energy"] = energy
        return abs(energy - math.pi)

    def sphere_demo():
        return sphere_run()[0]

    def monotone():
        worst = _worst(ex.trace_monotone_violation(run()[1]) for run in (torus_run, sphere_run))
        if out_dir is not None:
            write_trace_csv(torus_run()[1], out_dir / "torus_descent_trace.csv")
        return worst

    def windings():
        return 0.0 if torus_run()[2] else 1.0

    checks.extend(
        [
            Check("descent_torus_class_minimum", "winding loops relax to energy pi w^2",
                  1e-3, torus_demo),
            Check("descent_sphere_contractible", "contractible loops relax to zero energy",
                  1e-4, sphere_demo),
            Check("descent_monotone", "backtracking keeps every trace non-increasing",
                  1e-12, monotone),
            Check("descent_homotopy_class", "winding numbers constant along the descent",
                  0.5, windings),
        ]
    )
    return checks


def build_suite(config: ExperimentConfig, suite: str, out_dir: Path | None) -> list[Check]:
    builders = {
        "charts": lambda: _charts_checks(config),
        "topology": lambda: _topology_checks(config),
        "omega": lambda: _omega_checks(config),
        "taylor": lambda: _taylor_checks(config),
        "transitions": lambda: _transitions_checks(config),
        "descent": lambda: _descent_checks(config, out_dir),
    }
    if suite == "all":
        checks = []
        for name in SUITES:
            checks.extend(builders[name]())
        return checks
    if suite not in builders:
        raise ConfigError(f"unknown suite {suite!r}")
    return builders[suite]()


def execute_checks(checks: list[Check]) -> None:
    workers = int(os.environ.get("MAPCALC_THREADS", "1"))

    def run_one(check: Check) -> None:
        try:
            check.residual = float(check.thunk())
        except MapcalcError as err:
            check.residual = math.inf
            check.error = f"{type(err).__name__}: {err}"

    if workers > 1:
        # results land in the fixed check order regardless of completion order
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_one, checks))
    else:
        for check in checks:
            run_one(check)


def run_suite(config: ExperimentConfig, suite: str, out_dir: str | Path) -> int:
    """Run a suite, write report files, and return the exit status."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        click.echo(f"cannot create output directory: {err}", err=True)
        return 3
    started = time.time()
    checks = build_suite(config, suite, out)
    execute_checks(checks)
    report = {
        "suite": suite,
        "seed": config.seed,
        "resolution": config.resolution,
        "checks": [c.as_report() for c in checks],
        "all_pass": all(c.passed for c in checks),
    }
    metadata = {
        "started_unix": started,
        "runtime_seconds": time.time() - started,
    }
    try:
        (out / "report.json").write_text(canonical_json(report))
        (out / "metadata.json").write_text(canonical_json(metadata))
        transition_entries = [
            {
                "test": c.name,
                "max_residual": c.residual,
                "tolerance": c.tolerance,
                "pass": c.passed,
            }
            for c in checks
            if c.name.startswith(("transition", "metric"))
        ]
        if transition_entries:
            (out / "transitions_report.json").write_text(
                canonical_json(transition_entries)
            )
    except OSError as err:
        click.echo(f"cannot write report: {err}", err=True)
        return 3
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        click.echo(f"{status} {check.name}: residual={check.residual:.3e} "
                   f"tol={check.tolerance:.1e}")
    return 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------
# click entry points


@click.group()
def main():
    """Desk-scale checks for charts on mapping spaces."""


@main.command("run")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--suite", type=click.Choice(SUITES + ("all",)), default="all")
@click.option("--out", "out_dir", type=click.Path(), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--resolution", type=int, default=None)
def run_cmd(config_path, suite, out_dir, seed, resolution):
    """Run a verification suite and write JSON reports."""
    try:
        config = load_config(config_path, seed=seed, resolution=resolution)
    except ConfigError as err:
        click.echo(f"config error: {err}", err=True)
        raise SystemExit(2)
    out = out_dir if out_dir is not None else config.out_dir
    raise SystemExit(run_suite(config, suite, out))


@main.command("descend")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_dir", type=click.Path(), default=None)
def descend_cmd(config_path, out_dir):
    """Run the torus descent demo and write the trace and final map."""
    try:
        config = load_config(config_path)
    except ConfigError as err:
        click.echo(f"config error: {err}", err=True)
        raise SystemExit(2)
    out = Path(out_dir if out_dir is not None else config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        click.echo(f"cannot create output directory: {err}", err=True)
        raise SystemExit(3)
    from .atlas import CIRCLE_ATLAS, sample_map
    from .energy import descend as run_descend
    from .energy import dirichlet_energy

    f0 = sample_map(CIRCLE_ATLAS, config.torus, ex.TORUS_DEMO_LOOP, config.descent_resolution)
    final, trace = run_descend(
        f0, config.descent_steps, config.descent_step_size, grad_tol=1e-8
    )
    try:
        write_trace_csv(trace, out / "descent_trace.csv")
        write_map_csv(final, out / "descent_final_map.csv")
        report = {
            "final_energy": dirichlet_energy(final),
            "iterations": len(trace.rows),
            "target_energy": math.pi,
        }
        (out / "descent_report.json").write_text(canonical_json(report))
    except OSError as err:
        click.echo(f"cannot write outputs: {err}", err=True)
        raise SystemExit(3)
    click.echo(f"final energy {dirichlet_energy(final):.6f} after {len(trace.rows)} steps")
    raise SystemExit(0)


if __name__ == "__main__":
    main()
