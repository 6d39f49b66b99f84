"""Command-line harness: verification suites, descent demos, and reports.

Reports are deterministic for a fixed config and seed: the JSON report
carries only check results, while wall-clock metadata goes to a separate
file.  Exit codes: 0 all checks pass, 1 a check failed, 2 config or usage
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import experiments as ex
from .atlas import CIRCLE_ATLAS, overlap_residual, sample_map
from .charts import taylor_remainder
from .energy import dirichlet_energy
from .errors import ConfigError, MapcalcError
from .finite_diff import sup
from .io import canonical_json, write_map_csv, write_trace_csv
from .manifolds import TargetManifold, finite_number, flat_torus, sphere
from .maps import great_circle

SUITES = ("charts", "topology", "omega", "taylor", "transitions", "descent")
# the types a config field may hold, keyed by its annotation
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


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
    # the sphere(1.0, conformal=conformal) that validation builds, kept for the checks
    conformal_target: TargetManifold = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for f in fields(self):
            if not f.init:
                continue
            value, kind = getattr(self, f.name), _FIELD_TYPES.get(f.type, object)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ConfigError(f"{f.name} must be of type {f.type}, not {value!r}")
        floats = [getattr(self, f.name) for f in fields(self) if f.type == "float"]
        if not all(abs(v) <= sys.float_info.max for v in floats):
            raise ConfigError("float fields must be finite")
        if min(self.resolution, self.descent_resolution, self.sphere_descent_resolution) < 8:
            raise ConfigError("resolution must be at least 8")
        if not 0 <= self.order <= 2:
            raise ConfigError("derivative order must lie in [0, 2]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.sphere_radius <= 0:
            raise ConfigError("sphere radius must be positive")
        if self.trials < 1 or self.sections < 1:
            raise ConfigError("counts must be positive")
        if self.descent_steps < 1 or self.descent_step_size <= 0:
            raise ConfigError("descent parameters must be positive")
        # default_delta is delta_factor * inj / 6, which must stay below inj
        if not 0 < self.delta_factor < 6 or self.epsilon <= 0:
            raise ConfigError("delta_factor must lie in (0, 6) and epsilon must be positive")
        try:
            flat_torus(*(finite_number(p, "torus period") for p in self.torus_periods))
        except ValueError as err:
            raise ConfigError(f"bad torus periods {self.torus_periods!r}: {err}") from err
        try:
            target = sphere(1.0, conformal=self.conformal)
        except Exception as err:
            raise ConfigError(f"bad conformal factor {self.conformal!r}: {err}") from err
        object.__setattr__(self, "conformal_target", target)

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
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object, not {data!r}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    try:
        if "torus_periods" in data:
            data["torus_periods"] = tuple(data["torus_periods"])
        return ExperimentConfig(**data)
    except TypeError as err:
        raise ConfigError(f"bad config field: {err}") from err


@dataclass
class Check:
    suite: str
    name: str
    anchor: str
    tolerance: float
    thunk: object
    residual: float | None = None
    error: str | None = None
    extras: dict = field(default_factory=dict)
    seconds: float | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and self.residual < self.tolerance

    @property
    def over_tolerance(self) -> float | None:
        """residual / tolerance of a failing row that has a residual, else None."""
        if self.passed or self.residual is None:
            return None
        return self.residual / self.tolerance

    def as_metadata(self) -> dict:
        """The row's wall-clock entry for metadata.json, never for the report."""
        entry = {"check": self.name, "seconds": self.seconds}
        if self.over_tolerance is not None:
            entry["over_tolerance"] = self.over_tolerance
        return entry

    def as_report(self) -> dict:
        entry = {
            "check": self.name,
            "anchor": self.anchor,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        # an error row carries the error text instead of the check's extras
        entry.update(self.extras if self.error is None else {"error": self.error})
        return entry


# transitions_report.json renames the report fields it keeps
_TRANSITION_FIELDS = {"check": "test", "residual": "max_residual", "tolerance": "tolerance",
                      "pass": "pass", "error": "error"}


def _rng(config: ExperimentConfig, tag: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, tag])


def _once(thunk):
    """Run a thunk at most once; every caller gets its result or raises its
    exception."""
    outcome = []  # (result, None) or (exception, its traceback), once the thunk has run

    def run():
        if not outcome:
            try:
                outcome.append((thunk(), None))
            except Exception as err:
                outcome.append((err, err.__traceback__))
        value, tb = outcome[0]
        if tb is None:
            return value
        # from the thunk's own traceback, so that no caller's frames pile onto the next's
        raise value.with_traceback(tb)

    return run


# ---------------------------------------------------------------------------
# the check table


def _checks(config: ExperimentConfig, traces: dict | None) -> list[Check]:
    """Every check of every suite, in SUITES order.

    Each check owns the RNG tag it seeds its generator with, so a check's
    residual does not depend on which other checks run.  ``descent_monotone``
    puts the torus demo's trace into ``traces``, keyed by its file name, for
    the caller to write.
    """
    res, k = config.resolution, config.order

    def roundtrip(m, order, tag):
        return lambda: sup(
            ex.roundtrip_residual(
                *ex.random_pair(m, res, rng, delta_factor=config.delta_factor), order
            )
            for rng in itertools.repeat(_rng(config, tag), config.trials)
        )

    def overlap():
        return overlap_residual(
            sample_map(CIRCLE_ATLAS, config.sphere, great_circle(config.sphere_radius), res)
        )

    def homeo():
        rng = _rng(config, 5)
        fwd, inv = ex.homeo_rate_ratios(ex.random_center(config.sphere, res, rng), rng, k=k)
        return sup(abs(math.log2(r / fam[0])) for fam in (fwd, inv) for r in fam[1:])

    def pseudometric(axiom, torus_tag, sphere_tag):
        return lambda: sup(
            ex.pseudometric_residuals(m, res, _rng(config, tag), k)[axiom]
            for m, tag in ((config.torus, torus_tag), (config.sphere, sphere_tag))
        )

    def norm_axiom(axiom, tag):
        return lambda: ex.norm_axiom_residuals(config.sphere, res, _rng(config, tag), k)[axiom]

    def basis():
        return float(ex.basis_convergence_failures(
            config.torus, res, _rng(config, 17), epsilon=config.epsilon
        ))

    def ladder():
        case = ex.composition_probe_case(_rng(config, 18), count=100)
        values = ex.witness_ladder(
            lambda y: y**2, case["f1"], case["samples"], (0.1, 0.5, 1.0), k=1, box=case["box"]
        )
        if not all(map(math.isfinite, values)):
            return math.nan  # an infinite witness gives a difference of -inf, which passes
        return sup(a - b for a, b in zip(values, values[1:]))

    f, h = ex.omega_test_functions()
    taylor = ex.taylor_cases().values()

    def zero_disp():
        return sup(
            abs(float(np.max(np.atleast_1d(taylor_remainder(data, [0.3], [0.0])))))
            for data in taylor
        )

    # the transition rows run their trials as stacked batches, one residual per trial
    def cocycle():
        return sup(ex.cocycle_residuals(
            (config.sphere, config.torus), res, _rng(config, 31), config.trials
        ).ravel())

    def derivative(m, error, tag):
        return lambda: sup(
            ex.derivative_identity_residuals(m, res, _rng(config, tag), config.trials)[error]
        )

    def chain():
        return sup(ex.chain_rule_residuals(
            config.sphere, res, _rng(config, 34), max(1, config.trials // 2)
        ))

    def metric():
        return sup(ex.metric_independence_residuals(
            res, _rng(config, 35), config.sections, config.conformal_target
        ))

    # each demo runs once, whichever of the four descent checks asks first
    torus_run = _once(lambda: ex.torus_descent_demo(
        config.descent_resolution, config.descent_steps, config.descent_step_size
    ))
    sphere_run = _once(lambda: ex.sphere_descent_demo(
        config.sphere_descent_resolution, config.descent_steps, config.descent_step_size
    ))
    torus_extras: dict = {}

    def torus_demo():
        energy = dirichlet_energy(torus_run()[0])
        torus_extras["final_energy"] = energy
        return abs(energy - math.pi)

    def monotone():
        worst = sup(ex.trace_monotone_violation(run()[1]) for run in (torus_run, sphere_run))
        if traces is not None:
            traces["torus_descent_trace.csv"] = torus_run()[1]
        return worst

    roundtrip_anchor = "phi_f^{-1}(phi_f(g)) = g"
    return [
        Check("charts", "chart_roundtrip_sphere_k0", roundtrip_anchor, 1e-9,
              roundtrip(config.sphere, 0, 1)),
        Check("charts", "chart_roundtrip_torus_k0", roundtrip_anchor, 1e-9,
              roundtrip(config.torus, 0, 2)),
        Check("charts", "chart_roundtrip_sphere_k2", f"{roundtrip_anchor} (order-2 jets)", 1e-5,
              roundtrip(config.sphere, 2, 3)),
        Check("charts", "chart_roundtrip_torus_k2", f"{roundtrip_anchor} (order-2 jets)", 1e-5,
              roundtrip(config.torus, 2, 4)),
        Check("charts", "overlap_consistency", "single-valuedness across chart overlaps", 1e-10,
              overlap),
        Check("charts", "jet_convergence_order", "chart jets converge at O(h^4)", 1.0,
              lambda: abs(math.log2(ex.jet_convergence_ratio() / 16.0))),
        Check("charts", "chart_homeo_rate", "phi_f and phi_f^{-1} are Lipschitz at the center",
              1.0, homeo),
        Check("topology", "ck_distance_symmetry", "d_k(f, g) = d_k(g, f) on a fixed cover", 1e-10,
              pseudometric(0, 11, 12)),
        Check("topology", "ck_distance_triangle", "d_k(f, h) <= d_k(f, g) + d_k(g, h)", 1e-10,
              pseudometric(1, 13, 14)),
        Check("topology", "section_norm_homogeneity", "|a s| = |a| |s|", 1e-12,
              norm_axiom(0, 15)),
        Check("topology", "section_norm_triangle", "|s + t| <= |s| + |t|", 1e-12,
              norm_axiom(1, 16)),
        Check("topology", "neighborhood_basis", "shrinking families enter every subbasis element",
              0.5, basis),
        Check("topology", "composition_lipschitz",
              "k = 0 estimate bounded by the Lipschitz constant", 1e-9,
              ex.lipschitz_probe_residual),
        Check("topology", "composition_witness_monotone", "estimate constant non-decreasing in R",
              1e-12, ladder),
        *(
            Check("omega", f"omega_derivative_{name}_r{r}", "D(Omega_g) = A_1 . Omega_{D_2 g}",
                  1e-5, partial(ex.omega_fd_residual, kernel, f, h, r))
            for name, kernel in ex.standard_kernels().items()
            for r in (0, 1, 2)
        ),
        Check("taylor", "taylor_zero_displacement", "R(u,0)=0", 1e-15, zero_disp),
        Check("taylor", "taylor_identity", "f(u+h) = f(u) + sum D^i f(u) h^i / i! + R(u,h) h^r",
              1e-10, lambda: sup(ex.taylor_identity_residual(d, u, h) for d in taylor
                                    for u, h in (([0.3], [0.2]), ([-0.5], [0.35])))),
        Check("taylor", "taylor_quadratic", "quadratic case gives R(u,h) = h", 1e-12,
              lambda: sup(ex.taylor_quadratic_residual(u, h)
                             for u, h in ((0.7, 0.25), (-0.2, 0.4)))),
        Check("transitions", "transition_cocycle", "transitions compose along chart triples",
              1e-9, cocycle),
        Check("transitions", "transition_derivative_sphere",
              "D(phi_g . phi_f^{-1})_{s0} s acts by the fiber derivative", 1e-5,
              derivative(config.sphere, 1, 32)),
        Check("transitions", "transition_derivative_torus",
              "flat transitions differentiate to the identity", 1e-12,
              derivative(config.torus, 0, 33)),
        Check("transitions", "transition_chain_rule",
              "fiber derivatives compose along chart triples", 1e-5, chain),
        Check("transitions", "metric_independence",
              "round and conformal charts are smoothly compatible", 1e-4, metric),
        Check("descent", "descent_torus_class_minimum", "winding loops relax to energy pi w^2",
              1e-3, torus_demo, extras=torus_extras),
        Check("descent", "descent_sphere_contractible",
              "contractible loops relax to zero energy", 1e-4, lambda: sphere_run()[0]),
        Check("descent", "descent_monotone", "backtracking keeps every trace non-increasing",
              1e-12, monotone),
        Check("descent", "descent_homotopy_class", "winding numbers constant along the descent",
              0.5, lambda: 0.0 if torus_run()[2] else 1.0),
    ]


def build_suite(config: ExperimentConfig, suite: str, traces: dict | None) -> list[Check]:
    if suite != "all" and suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    return [c for c in _checks(config, traces) if suite in ("all", c.suite)]


def execute_checks(checks: list[Check]) -> None:
    """Run the checks in order, in the calling thread."""
    for check in checks:
        # any failure becomes an error row; the other checks still run
        start = time.perf_counter()
        try:
            residual = float(check.thunk())
        except Exception as err:
            print(f"check {check.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            check.error = f"{type(err).__name__}: {err}"
            continue
        finally:
            check.seconds = time.perf_counter() - start
        if math.isfinite(residual):
            check.residual = residual
        else:
            check.error = f"non-finite residual: {residual}"


def run_suite(config: ExperimentConfig, suite: str, out_dir: str | Path) -> int:
    """Run a suite, write report files, and return the exit status."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"cannot create output directory: {err}", file=sys.stderr)
        return 3
    started = time.time()
    traces: dict = {}
    checks = build_suite(config, suite, traces)
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
        "checks": [c.as_metadata() for c in checks],
    }
    try:
        (out / "report.json").write_text(canonical_json(report))
        (out / "metadata.json").write_text(canonical_json(metadata))
        transition_entries = [
            {new: row[old] for old, new in _TRANSITION_FIELDS.items() if old in row}
            for c, row in zip(checks, report["checks"])
            if c.suite == "transitions"
        ]
        if transition_entries:
            (out / "transitions_report.json").write_text(
                canonical_json(transition_entries)
            )
        for name, trace in traces.items():
            write_trace_csv(trace, out / name)
    except OSError as err:
        print(f"cannot write report: {err}", file=sys.stderr)
        return 3
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        residual = "none" if check.residual is None else f"{check.residual:.3e}"
        over = "" if check.over_tolerance is None else f" ({check.over_tolerance:.3g}x tol)"
        error = "" if check.error is None else f" ({check.error})"
        print(f"{status} {check.name}: residual={residual} "
              f"tol={check.tolerance:.1e}{over}{error}")
    return 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------
# the command line


def descend(config: ExperimentConfig, out_dir: str | Path) -> int:
    """Run the torus descent demo, write the trace and final map, and return
    the exit status."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"cannot create output directory: {err}", file=sys.stderr)
        return 3
    try:
        final, trace, _ = ex.torus_descent_demo(
            config.descent_resolution, config.descent_steps, config.descent_step_size
        )
    except MapcalcError as err:
        # a well-typed config the demo cannot run, such as a first step so
        # large that no halving brings it inside the chart
        print(f"config error: the descent demo failed: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 2
    energy = dirichlet_energy(final)
    try:
        write_trace_csv(trace, out / "descent_trace.csv")
        write_map_csv(final, out / "descent_final_map.csv")
        report = {
            "final_energy": energy,
            "iterations": len(trace.rows),
            "target_energy": math.pi,
        }
        (out / "descent_report.json").write_text(canonical_json(report))
    except OSError as err:
        print(f"cannot write outputs: {err}", file=sys.stderr)
        return 3
    print(f"final energy {energy:.6f} after {len(trace.rows)} steps")
    return 0


def main() -> int:
    """Parse ``sys.argv``, run the command and return its exit status; a
    usage error returns 2 and ``--help`` 0."""
    parser = argparse.ArgumentParser(
        prog="mapcalc", description="Desk-scale checks for charts on mapping spaces.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run a verification suite", allow_abbrev=False)
    demo = commands.add_parser("descend", help="run the torus descent demo", allow_abbrev=False)
    for command in (run, demo):
        command.add_argument("--config")
        command.add_argument("--out")
    run.add_argument("--suite", choices=SUITES + ("all",), default="all")
    run.add_argument("--seed", type=int)
    run.add_argument("--resolution", type=int)
    try:
        args = parser.parse_args()
    except SystemExit as stop:
        return stop.code
    overrides = {"seed": args.seed, "resolution": args.resolution} if args.command == "run" else {}
    try:
        config = load_config(args.config, **overrides)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    out = args.out if args.out is not None else config.out_dir
    if args.command == "run":
        return run_suite(config, args.suite, out)
    return descend(config, out)


if __name__ == "__main__":
    sys.exit(main())
