"""Metric names of the mapcalc benchmark, with units and direction.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests check that the two agree.
"""

from __future__ import annotations

# (name, unit, better, bound): measured untraced, once per run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("suite_s", "s", "lower", 0.25),
    ("pass_frac", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

TARGETS = ("round", "torus", "conformal")

# The 35 checks of the suites the workloads run, in suite order.
CHECK_NAMES = (
    # transitions
    "transition_cocycle",
    "transition_derivative_sphere",
    "transition_derivative_torus",
    "transition_chain_rule",
    "metric_independence",
    # descent
    "descent_torus_class_minimum",
    "descent_sphere_contractible",
    "descent_monotone",
    "descent_homotopy_class",
    # charts
    "chart_roundtrip_sphere_k0",
    "chart_roundtrip_torus_k0",
    "chart_roundtrip_sphere_k2",
    "chart_roundtrip_torus_k2",
    "overlap_consistency",
    "jet_convergence_order",
    "chart_homeo_rate",
    # topology
    "ck_distance_symmetry",
    "ck_distance_triangle",
    "section_norm_homogeneity",
    "section_norm_triangle",
    "neighborhood_basis",
    "composition_lipschitz",
    "composition_witness_monotone",
    # omega
    *(
        f"omega_derivative_{kernel}_r{r}"
        for kernel in ("square", "sinx_times_y", "exp")
        for r in (0, 1, 2)
    ),
    # taylor
    "taylor_zero_displacement",
    "taylor_identity",
    "taylor_quadratic",
)

# Spans whose calls and self time are reported, by layer.
SPANS = (
    "manifolds.fiber_derivative",
    "atlas.sample_map",
    "atlas.chart_jet",
    "atlas.map_sup_distance",
    "atlas.overlap_residual",
    "sections.make_section",
    "sections.section_from_formula",
    "sections.section_sup",
    "sections.section_max_diff",
    "charts.chart_forward",
    "charts.chart_inverse",
    "charts.transition",
    "charts.transition_derivative",
    "charts.metric_transition",
    "charts.metric_transition_fiber",
    "charts.omega",
    "charts.taylor_remainder",
    "topology.canonical_cover",
    "topology.ck_distance",
    "topology.section_norm",
    "topology.nbhd_contains",
    "topology.composition_bound_probe",
    "energy.dirichlet_energy",
    "energy.energy_gradient",
    "energy.loop_values",
    "io.canonical_json",
    "io.write_trace_csv",
)


def _per_layer():
    out = []
    for op in ("exp", "log"):
        for target in TARGETS:
            span = f"manifolds.{op}.{target}"
            out += [(f"{span}.calls", "count", "lower"),
                    (f"{span}.nodes", "count", "lower"),
                    (f"{span}.self_s", "s", "lower")]
    for target in TARGETS:
        out += [(f"manifolds.dist.{target}.calls", "count", "lower"),
                (f"manifolds.dist.{target}.self_s", "s", "lower")]
    out += [("manifolds.conformal_eval.calls", "count", "lower"),
            ("manifolds.conformal_eval.points", "count", "lower")]
    for span in SPANS:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower")]
    out += [("energy.descend.iters", "count", "lower"),
            ("energy.descend.trials", "count", "lower"),
            ("energy.descend.accept_ratio", "ratio", "higher"),
            ("energy.descend.cap_hits", "count", "lower"),
            ("io.bytes_written", "B", "lower")]
    out += [(f"cli.check.{name}.s", "s", "lower") for name in CHECK_NAMES]
    out.append(("trace.overhead_s", "s", "lower"))
    return tuple(out)


# (name, unit, better): measured in the traced run.
PER_LAYER = _per_layer()
