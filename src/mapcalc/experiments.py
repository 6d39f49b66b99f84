"""Builders and residual computations for the verification experiments.

Each function here produces the raw residual of one property check.  The
CLI check table (`cli._checks`) is their one wrapper: it adds the trial
counts, seeds and tolerances, and the acceptance tests run its rows at
pinned configs.  Randomness always flows through an explicit generator.
"""

from __future__ import annotations

import math

import numpy as np

from .atlas import (
    CIRCLE_ATLAS,
    SampledMap,
    chart_jet,
    chart_layout,
    compact_slices,
    grid_coords,
    sample_map,
)
from .charts import (
    OmegaKernel,
    TaylorData,
    apply_fiber_matrices,
    chart_forward,
    chart_inverse,
    default_delta,
    metric_transition_batch,
    omega_apply,
    omega_derivative,
    taylor_identity_residual,
    taylor_remainder,
    transition,
    transition_derivative,
)
from .energy import DescentTrace, descend, dirichlet_energy, winding_numbers
from .finite_diff import sup
from .gridfn import GridFunction, grid_jet_sup_diff
from .manifolds import TargetManifold, flat_torus, sphere
from .maps import (
    add_fourier_modes,
    loop_draws,
    over_grid,
    random_loop,
    stack_draws,
    torus_loop,
)
from .sections import (
    PullbackSection,
    section_add,
    section_from_formula,
    section_max_diff,
    section_scale,
    section_sup,
)
from .topology import (
    canonical_cover,
    ck_distance,
    composition_bound_probe,
    cover_jets,
    jets_distance,
    nbhd_contains,
    neighborhood,
    section_norm,
    witness_ladder,
)

DEFAULT_SPHERE = sphere(1.0)
DEFAULT_TORUS = flat_torus(2 * math.pi, 2 * math.pi)
DEFAULT_CONFORMAL_EXPR = "exp(0.3*z)"
# Perturbed winding loop of class (1, 0) that the torus descent demos relax.
TORUS_DEMO_LOOP = torus_loop((1, 0), waves=((0, 0.3, 0.4), (1, 0.2, 1.1)))


# Most nodes one stacked batch of trials holds: trials times the nodes of one
# map.  At resolution 64 (130 nodes per map) a batch takes 126 trials, and at
# 4096 (8,194 nodes) one; past a few thousand nodes per trial a larger batch
# saves nothing.
TRIAL_BATCH_NODES = 2**14


def field_draws(rng: np.random.Generator, ambient: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of one random vector field, drawn from ``rng``:
    modes 1 to 3 at 1/k of a normal draw, then a constant vector."""
    coeff = rng.standard_normal((3, 2, ambient))
    coeff = coeff / np.arange(1, 4)[:, None, None]
    return coeff, rng.standard_normal(ambient)


def random_vector_field(draws: tuple[np.ndarray, np.ndarray]):
    """The field of ``field_draws``; draws stacked by ``stack_draws`` give one
    field per trial on a leading trial axis, evaluated in one pass."""
    coeff, const = draws

    def vf(mesh):
        theta = mesh[..., 0]
        shape = const.shape[:-1] + theta.shape + const.shape[-1:]
        return add_fourier_modes(np.broadcast_to(over_grid(const, 1, theta), shape), theta, coeff)

    return vf


def random_section(
    f: SampledMap, rng: np.random.Generator, sup: float, bound: float | None = None
) -> PullbackSection:
    vf = random_vector_field(field_draws(rng, f.target.ambient_dim))
    return section_from_formula(f, vf, sup_scale=sup, bound=bound)


def random_center(m: TargetManifold, resolution: int, rng: np.random.Generator) -> SampledMap:
    return sample_map(CIRCLE_ATLAS, m, random_loop(m, loop_draws(m, rng)), resolution)


def trial_batches(
    targets: tuple[TargetManifold, ...],
    resolution: int,
    rng: np.random.Generator,
    trials: int,
    fields: int,
):
    """Per batch of trials, per target: the batch of random centers and its
    ``fields`` random vector fields, each stacked on the trial axis.

    Each trial draws from ``rng`` in turn, target by target, its center's
    coefficients and then those of its fields: the draws ``random_center``
    and ``random_section`` would take one trial at a time.  A batch holds at
    most ``TRIAL_BATCH_NODES`` nodes per map batch, and at least one trial.
    """
    size = max(1, TRIAL_BATCH_NODES // chart_layout(CIRCLE_ATLAS, resolution).starts[-1])
    for start in range(0, trials, size):
        draws = [
            [[loop_draws(m, rng), *(field_draws(rng, m.ambient_dim) for _ in range(fields))]
             for m in targets]
            for _ in range(min(size, trials - start))
        ]
        yield [_stacked(m, resolution, [trial[i] for trial in draws])
               for i, m in enumerate(targets)]


def _stacked(m: TargetManifold, resolution: int, draws) -> tuple[SampledMap, list]:
    """The batch of centers and the stacked fields of per-trial draws."""
    loop, *fields = (stack_draws(parts) for parts in zip(*draws))
    f = sample_map(CIRCLE_ATLAS, m, random_loop(m, loop), resolution)
    return f, [random_vector_field(d) for d in fields]


def random_pair(
    m: TargetManifold,
    resolution: int,
    rng: np.random.Generator,
    delta_factor: float = 0.4,
) -> tuple[SampledMap, SampledMap, float]:
    """A random loop f and a perturbation g within the chart bound of f."""
    f = random_center(m, resolution, rng)
    delta = default_delta(f, factor=delta_factor)
    sup = 0.9 * delta * rng.uniform(0.2, 0.99)
    s = random_section(f, rng, sup, bound=delta)
    g = chart_inverse(f, s)
    return f, g, delta


# ---------------------------------------------------------------------------
# chart checks


def roundtrip_residual(f: SampledMap, g: SampledMap, delta: float, k: int) -> float:
    s = chart_forward(f, g, delta)
    g2 = chart_inverse(f, s)
    return ck_distance(g, g2, k, cover=canonical_cover(g))


def homeo_rate_ratios(
    f: SampledMap, rng: np.random.Generator, k: int, ladder=(1e-1, 1e-2, 1e-3, 1e-4)
) -> tuple[list[float], list[float]]:
    """Linear-rate witnesses for the chart and its inverse along a shrinking family."""
    delta = default_delta(f)
    u = random_section(f, rng, sup=1.0, bound=2.0)
    fwd, inv = [], []
    cover = canonical_cover(f)
    jf = cover_jets(f, cover, k)
    for t in ladder:
        ut = section_scale(u, t * delta)
        g = chart_inverse(f, ut)
        d = jets_distance(jf, cover_jets(g, cover, k))
        s = chart_forward(f, g, delta)
        fwd.append(section_norm(s, k) / d)
        inv.append(d / section_norm(ut, k))
    return fwd, inv


def jet_convergence_ratio() -> float:
    """Error ratio of the second jet of sin across a resolution doubling (nominal 16)."""
    errs = []
    for res in (128, 256):
        f = sample_map(
            CIRCLE_ATLAS, DEFAULT_TORUS, torus_loop((0, 0), waves=((0, 1.0, 0.0),)), res
        )
        cover = canonical_cover(f)
        chart_errs = []
        for chart in f.atlas.charts:
            jet = chart_jet(f, cover[chart.id], chart.id, 2)
            entry = jet[(2,)][..., 0]
            (js,) = compact_slices(chart, res)
            thetas = grid_coords(chart, res)[0][js]
            chart_errs.append(np.max(np.abs(entry + np.sin(thetas))))
        errs.append(sup(chart_errs))
    return errs[0] / errs[1]


# ---------------------------------------------------------------------------
# transition checks


def cocycle_residuals(
    targets: tuple[TargetManifold, ...], resolution: int, rng: np.random.Generator, trials: int
) -> np.ndarray:
    """Per trial (rows) and target (columns): the sup distance between a
    section moved through a chart triple and moved directly."""
    return np.concatenate([
        np.stack([_cocycle(f, *fields) for f, fields in batch], axis=-1)
        for batch in trial_batches(targets, resolution, rng, trials, 3)
    ])


def _cocycle(f: SampledMap, g_field, h_field, s_field) -> np.ndarray:
    delta = default_delta(f)
    g = chart_inverse(f, section_from_formula(f, g_field, 0.25 * delta, bound=delta))
    h = chart_inverse(f, section_from_formula(f, h_field, 0.25 * delta, bound=delta))
    s = section_from_formula(f, s_field, 0.2 * delta, bound=0.25 * delta)
    via = transition(g, h, transition(f, g, s))
    direct = transition(f, h, s)
    return section_max_diff(via, direct)


def transition_differences(
    f: SampledMap, g: SampledMap, s0: PullbackSection, dirs: list[PullbackSection],
    m_from: TargetManifold, m_to: TargetManifold, eps: float, step: float,
) -> list[tuple[PullbackSection, PullbackSection]]:
    """(central difference of step ``eps``, fiber-derivative image) of each
    direction at s0 under v -> log_g(exp_f(v)), exp in ``m_from`` and log in
    ``m_to``; the fiber probes (of ``step``) and both sides of every
    difference share one ``metric_transition_batch``."""
    probes = [section_add(s0, section_scale(s, sign * eps)) for s in dirs for sign in (1, -1)]
    mats, moved = metric_transition_batch(f, g, s0, probes, m_from, m_to, step=step)
    return [
        (section_scale(section_add(plus, section_scale(minus, -1.0)), 0.5 / eps),
         apply_fiber_matrices(f, g, mats, s))
        for s, plus, minus in zip(dirs, moved[::2], moved[1::2])
    ]


def derivative_identity_residuals(
    m: TargetManifold, resolution: int, rng: np.random.Generator, trials: int
) -> tuple[np.ndarray, np.ndarray]:
    """Transition derivative vs a central directional difference, per trial;
    (abs, rel).

    On the flat torus the transition is affine, so the difference quotient
    has no truncation error and a larger probe step only suppresses the
    rounding amplification of 1/eps.
    """
    eps = 1e-2 if m.kind == "torus" else 1e-4
    out = []
    for ((f, (g_field, s0_field, s_field)),) in trial_batches((m,), resolution, rng, trials, 3):
        delta = default_delta(f)
        g = chart_inverse(f, section_from_formula(f, g_field, 0.3 * delta, bound=delta))
        s0 = section_from_formula(f, s0_field, 0.25 * delta, bound=0.3 * delta)
        s = section_from_formula(f, s_field, 0.2 * delta, bound=0.25 * delta)
        ((fd, analytic),) = transition_differences(f, g, s0, [s], m, m, eps, step=1e-6)
        resid = section_max_diff(fd, analytic)
        out.append((resid, resid / np.maximum(section_sup(analytic), 1e-12)))
    return tuple(np.concatenate(parts) for parts in zip(*out))


def chain_rule_residuals(
    m: TargetManifold, resolution: int, rng: np.random.Generator, trials: int
) -> np.ndarray:
    """Composite transition derivative vs the product of fiber derivatives,
    relative, per trial."""
    out = []
    for ((f, fields),) in trial_batches((m,), resolution, rng, trials, 4):
        delta = default_delta(f)
        g_field, h_field, s0_field, s_field = fields
        g = chart_inverse(f, section_from_formula(f, g_field, 0.2 * delta, bound=delta))
        h = chart_inverse(f, section_from_formula(f, h_field, 0.2 * delta, bound=delta))
        s0 = section_from_formula(f, s0_field, 0.2 * delta, bound=0.25 * delta)
        s = section_from_formula(f, s_field, 0.15 * delta, bound=0.2 * delta)
        t0 = transition(f, g, s0)
        via = transition_derivative(g, h, t0, transition_derivative(f, g, s0, s))
        direct = transition_derivative(f, h, s0, s)
        out.append(section_max_diff(via, direct) / np.maximum(section_sup(direct), 1e-12))
    return np.concatenate(out)


def metric_independence_residuals(
    resolution: int,
    rng: np.random.Generator,
    n_sections: int,
    conformal_expr: str = DEFAULT_CONFORMAL_EXPR,
    dirs_per_base: int = 5,
) -> list[float]:
    """Derivative checks for the transition between round and conformal charts.

    Bases s0 are shared by several direction sections, so the nodewise
    fiber derivative (four probes per node) is amortized across them; the
    fiber probes and the plus and minus sections of all directions of a base
    share one shooting batch.
    """
    eps = 1e-3
    m_round = DEFAULT_SPHERE
    m_conf = sphere(1.0, conformal=conformal_expr)
    f = random_center(m_round, resolution, rng)
    residuals: list[float] = []
    while len(residuals) < n_sections:
        s0 = random_section(f, rng, 0.12, bound=0.2)
        count = min(dirs_per_base, n_sections - len(residuals))
        dirs = [random_section(f, rng, 0.08, bound=0.12) for _ in range(count)]
        residuals += [
            section_max_diff(fd, analytic) / max(section_sup(analytic), 1e-12)
            for fd, analytic in transition_differences(f, f, s0, dirs, m_round, m_conf, eps, 1e-4)
        ]
    return residuals


# ---------------------------------------------------------------------------
# composition operator checks


def standard_kernels() -> dict[str, OmegaKernel]:
    box = ((-1.4, 1.4),)
    return {
        "square": OmegaKernel(
            box,
            value=lambda xs, ys: ys**2,
            fiber_derivative=lambda xs, ys: (2 * ys)[..., None],
        ),
        "sinx_times_y": OmegaKernel(
            box,
            value=lambda xs, ys: np.sin(xs)[:, None] * ys,
            fiber_derivative=lambda xs, ys: np.sin(xs)[:, None, None]
            * np.ones_like(ys)[..., None],
        ),
        "exp": OmegaKernel(
            box,
            value=lambda xs, ys: np.exp(ys),
            fiber_derivative=lambda xs, ys: np.exp(ys)[..., None],
        ),
    }


def omega_fd_residual(kernel: OmegaKernel, f: GridFunction, h: GridFunction, r: int) -> float:
    """Operator derivative vs function-space central difference, C^r residual."""
    eps = 1e-4
    analytic = omega_derivative(kernel, f, h)
    plus = omega_apply(kernel, GridFunction(f.lo, f.hi, f.values + eps * h.values))
    minus = omega_apply(kernel, GridFunction(f.lo, f.hi, f.values - eps * h.values))
    fd = GridFunction(f.lo, f.hi, (plus.values - minus.values) / (2 * eps))
    return grid_jet_sup_diff(analytic, fd, r)


def omega_test_functions() -> tuple[GridFunction, GridFunction]:
    f = GridFunction.sample(lambda x: 0.8 * np.sin(x), 0.0, 2 * math.pi, 512)
    h = GridFunction.sample(lambda x: 0.5 * np.cos(2 * x) + 0.3 * np.sin(x), 0.0, 2 * math.pi, 512)
    return f, h


# ---------------------------------------------------------------------------
# Taylor checks


def taylor_cases() -> dict[str, TaylorData]:
    box = ((-2.0, 2.0),)
    return {
        "square_r1": TaylorData(1, box, lambda u: u[0] ** 2, (lambda u: 2 * u[0],)),
        "sin_r1": TaylorData(1, box, lambda u: math.sin(u[0]), (lambda u: math.cos(u[0]),)),
        "sin_r2": TaylorData(
            2,
            box,
            lambda u: math.sin(u[0]),
            (lambda u: math.cos(u[0]), lambda u: -math.sin(u[0])),
        ),
        "sin_r3": TaylorData(
            3,
            box,
            lambda u: math.sin(u[0]),
            (
                lambda u: math.cos(u[0]),
                lambda u: -math.sin(u[0]),
                lambda u: -math.cos(u[0]),
            ),
        ),
        "exp_r3": TaylorData(
            3,
            box,
            lambda u: math.exp(u[0]),
            (lambda u: math.exp(u[0]),) * 3,
        ),
    }


def taylor_quadratic_residual(u: float, h: float) -> float:
    data = taylor_cases()["square_r1"]
    applied = taylor_remainder(data, [u], [h])
    return abs(applied / h - h) if h != 0 else abs(applied)


# ---------------------------------------------------------------------------
# topology checks


def composition_probe_case(rng: np.random.Generator, count: int) -> dict:
    """Trigonometric rays around sin for the composition estimate probe.

    Each sample sits on a ray f1 + lambda * q with q a bounded trigonometric
    direction, so every sample stays inside the value box and a dense sweep
    along the rays dominates the sampled ratios by construction.  The ray
    parameters are drawn log-uniformly, spreading the jet distances across
    the radius ladder.
    """
    lo, hi, n = 0.0, 2 * math.pi, 400
    scale = 0.995
    f1 = GridFunction.sample(lambda x: scale * np.sin(x), lo, hi, n)
    samples, rays = [], []
    for _ in range(count):
        w = rng.uniform(-1.0, 1.0, size=2)
        w = w / (np.abs(w).sum() + 1e-12)
        phase = rng.uniform(0, 2 * math.pi, size=2)
        lam = math.exp(rng.uniform(math.log(0.01), math.log(0.3)))

        def direction(x, w=w, phase=phase):
            return w[0] * np.sin(2 * x + phase[0]) + w[1] * np.cos(x + phase[1])

        def fn(x, lam=lam, direction=direction):
            return scale * ((1 - lam) * np.sin(x) + lam * direction(x))

        def ray(x, direction=direction):
            return scale * (direction(x) - np.sin(x))

        samples.append(GridFunction.sample(fn, lo, hi, n))
        rays.append((lam, GridFunction.sample(ray, lo, hi, n)))
    return {"f1": f1, "samples": samples, "rays": rays, "box": ((-1.0, 1.0),)}


def lipschitz_probe_residual() -> float:
    """k = 0 probe against a known Lipschitz constant (psi doubles its input)."""
    lo, hi, n = 0.0, 1.0, 200
    f1 = GridFunction.sample(lambda x: 0.4 * np.sin(3 * x), lo, hi, n)
    samples = [
        GridFunction.sample(lambda x, c=c: 0.4 * np.sin(3 * x) + c, lo, hi, n)
        for c in (0.05, -0.1, 0.2)
    ]
    ratio = composition_bound_probe(lambda y: 2.0 * y, f1, samples, R=1.0, k=0)
    return sup([ratio - 2.0])


def pseudometric_residuals(
    m: TargetManifold, resolution: int, rng: np.random.Generator, k: int
) -> tuple[float, float]:
    """(symmetry residual, triangle violation) under one shared cover."""
    f = random_center(m, resolution, rng)
    delta = default_delta(f)
    cover = canonical_cover(f)
    g = chart_inverse(f, random_section(f, rng, 0.1 * delta, bound=delta))
    h = chart_inverse(f, random_section(f, rng, 0.1 * delta, bound=delta))
    # each map's jets once; jets_distance gives ck_distance's value
    jf, jg, jh = (cover_jets(x, cover, k) for x in (f, g, h))
    d_fg = jets_distance(jf, jg)
    sym = abs(d_fg - jets_distance(jg, jf))
    tri = sup([jets_distance(jf, jh) - d_fg - jets_distance(jg, jh)])
    return sym, tri


def norm_axiom_residuals(
    m: TargetManifold, resolution: int, rng: np.random.Generator, k: int
) -> tuple[float, float]:
    f = random_center(m, resolution, rng)
    s = random_section(f, rng, 0.3)
    t = random_section(f, rng, 0.2)
    a = -2.5
    norm_s = section_norm(s, k)
    hom = abs(section_norm(section_scale(s, a), k) - abs(a) * norm_s)
    tri = sup([section_norm(section_add(s, t), k) - norm_s - section_norm(t, k)])
    return hom, tri


def basis_convergence_failures(
    m: TargetManifold,
    resolution: int,
    rng: np.random.Generator,
    epsilon: float,
) -> int:
    """Shrinking family against three subbasis elements; counts late failures."""
    f = random_center(m, resolution, rng)
    delta = default_delta(f)
    u = random_section(f, rng, delta * 0.5, bound=delta)
    nbhds = [
        neighborhood(f, epsilon=epsilon, order=1, chart_ids=(0,)),
        neighborhood(f, epsilon=0.5 * epsilon, order=0, chart_ids=(1,)),
        neighborhood(f, epsilon=2.5 * epsilon, order=2, chart_ids=(0,)),
    ]
    # each shrinking map is built once, and only one is alive at a time
    member_since = [None] * len(nbhds)
    failures = 0
    for step in range(1, 31):
        g = chart_inverse(f, section_scale(u, 1.0 / step))
        for i, nbhd in enumerate(nbhds):
            inside = nbhd_contains(nbhd, g)
            if inside and member_since[i] is None:
                member_since[i] = step
            if not inside and member_since[i] is not None:
                failures += 1
    return failures + member_since.count(None)


# ---------------------------------------------------------------------------
# descent demos


def torus_descent_demo(
    resolution: int, steps: int, step_size: float
) -> tuple[SampledMap, DescentTrace, bool]:
    """Perturbed winding loop on the 2 pi torus relaxing to the straight loop
    of its class: (final map, trace, whether the winding numbers held)."""
    f0 = sample_map(CIRCLE_ATLAS, DEFAULT_TORUS, TORUS_DEMO_LOOP, resolution)
    w0, held = winding_numbers(f0), []
    final, trace = descend(f0, steps, step_size, grad_tol=1e-8,
                           on_step=lambda _, current: held.append(winding_numbers(current) == w0))
    return final, trace, all(held)


def sphere_descent_demo(
    resolution: int, steps: int, step_size: float
) -> tuple[float, DescentTrace]:
    """Contractible cap loop shrinking toward a point."""
    from .maps import sphere_cap_loop

    f0 = sample_map(CIRCLE_ATLAS, DEFAULT_SPHERE, sphere_cap_loop(1.0, 0.5), resolution)
    final, trace = descend(f0, steps, step_size, grad_tol=1e-9)
    return dirichlet_energy(final), trace


def trace_monotone_violation(trace: DescentTrace) -> float:
    return sup(np.diff(trace.energies))
