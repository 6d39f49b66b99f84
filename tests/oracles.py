"""Independent oracle computations used to pin expected values in the tests.

Everything here is deliberately written from scratch against first
principles (geodesic ODE integration, dense polylines, brute-force lattice
search, Richardson extrapolation) so the package code under test never
computes its own expected values.  The last section is the exception: it
holds helpers that only the tests call, built on the package's own layers;
``tests/test_referenced.py`` keeps such code out of ``mapcalc``.
"""

import itertools
import math

import numpy as np


def rk4_round_geodesic(p, v, radius, step=1e-4):
    """Integrate gamma'' = -|gamma'|^2 gamma / R^2 from (p, v) over unit time."""
    pos = np.array(p, dtype=float)
    vel = np.array(v, dtype=float)
    n = int(round(1.0 / step))

    def acc(x, xd):
        return -np.dot(xd, xd) / radius**2 * x

    h = 1.0 / n
    for _ in range(n):
        k1p, k1v = vel, acc(pos, vel)
        k2p, k2v = vel + 0.5 * h * k1v, acc(pos + 0.5 * h * k1p, vel + 0.5 * h * k1v)
        k3p, k3v = vel + 0.5 * h * k2v, acc(pos + 0.5 * h * k2p, vel + 0.5 * h * k2v)
        k4p, k4v = vel + h * k3v, acc(pos + h * k3p, vel + h * k3v)
        pos = pos + (h / 6) * (k1p + 2 * k2p + 2 * k3p + k4p)
        vel = vel + (h / 6) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return pos


def broadcast_seed_gradient(phi, coords):
    """A conformal factor's value and ambient gradient, from identity seeds
    broadcast to every node (C-ordered, read-only)."""
    from mapcalc.manifolds import _Dual

    out = phi(_Dual(coords, np.broadcast_to(np.eye(3), coords.shape + (3,))))
    return out.v, out.d


def conformal_rk4_flow(m, base, vec, rule=(1, 64.0, True)):
    """Conformal geodesic endpoints by RK4 on C-ordered (n, 3) arrays.

    On a sphere of radius r, node i takes k_i = max(floor, ceil(scale
    (|v_i| / r)^(5/4))) steps of width 1/k_i for a rule (floor, scale), with
    the plain broadcasts and numpy reductions of a direct transcription of
    the geodesic equation, and is projected back onto the sphere after each
    step.  For a rule (floor, scale, True) (by default the step rule of every
    flow but the shooting's chord Jacobian) it flows at k_i and at 2 k_i
    steps, and returns the Richardson extrapolation (16 y_2k - y_k) / 15,
    projected onto the sphere.
    """
    r = m.radius

    def rhs(pos, vel):
        phi, grad = broadcast_seed_gradient(m.conformal, pos)
        n = pos / r
        grad_t = grad - np.sum(grad * n, axis=-1)[:, None] * n
        sq = np.sum(vel * vel, axis=-1)[:, None]
        acc = (0.5 * sq * grad_t - np.sum(grad_t * vel, axis=-1)[:, None] * vel) / phi[:, None]
        return acc - (sq / r**2) * pos

    def flow(steps):
        pos = np.array(base, dtype=float).reshape(-1, 3)
        vel = np.array(vec, dtype=float).reshape(-1, 3)
        for k in range(int(np.max(steps, initial=0))):
            live = steps > k
            p, v, h = pos[live], vel[live], (1.0 / steps[live])[:, None]
            k1p, k1v = v, rhs(p, v)
            k2p = v + 0.5 * h * k1v
            k2v = rhs(p + 0.5 * h * k1p, k2p)
            k3p = v + 0.5 * h * k2v
            k3v = rhs(p + 0.5 * h * k2p, k3p)
            k4p = v + h * k3v
            k4v = rhs(p + h * k3p, k4p)
            p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
            pos[live] = p * (r / np.linalg.norm(p, axis=-1)[:, None])
            vel[live] = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        return pos

    speeds = np.linalg.norm(np.reshape(vec, (-1, 3)), axis=-1)
    steps = np.maximum(rule[0], np.ceil(rule[1] * (speeds / r) ** 1.25))
    if len(rule) == 2:
        return flow(steps).reshape(np.shape(base))
    p = (16.0 * flow(2 * steps) - flow(steps)) / 15.0
    return (p * (r / np.linalg.norm(p, axis=-1)[:, None])).reshape(np.shape(base))


def _tangent_frame(n):
    axis = int(np.argmin(np.abs(n)))
    e = np.zeros(3)
    e[axis] = 1.0
    u1 = e - np.dot(e, n) * n
    u1 /= np.linalg.norm(u1)
    return u1, np.cross(n, u1)


def shoot_round_log(p, q, radius, step=1e-3, tol=1e-10, max_iter=40):
    """Invert the round exponential by Newton on the 2-d tangent coordinates.

    The endpoint residual is read in a tangent frame at the target, where it
    actually lives.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    u1, u2 = _tangent_frame(p / radius)
    q1, q2 = _tangent_frame(q / radius)

    def endpoint_residual(w):
        vec = w[0] * u1 + w[1] * u2
        r = rk4_round_geodesic(p, vec, radius, step=step) - q
        return np.array([np.dot(r, q1), np.dot(r, q2)])

    w = np.array([np.dot(q - p, u1), np.dot(q - p, u2)])
    for _ in range(max_iter):
        r2 = endpoint_residual(w)
        if np.linalg.norm(r2) < tol:
            break
        fd = 1e-6
        jac = np.empty((2, 2))
        for a in range(2):
            dw = np.zeros(2)
            dw[a] = fd
            jac[:, a] = (endpoint_residual(w + dw) - r2) / fd
        w = w - np.linalg.solve(jac, r2)
    return w[0] * u1 + w[1] * u2


def polyline_great_circle_length(p, q, radius, n=4000):
    """Chord-sum length of a dense polyline along the connecting great circle."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    cosang = np.clip(np.dot(p, q) / radius**2, -1, 1)
    ang = math.acos(cosang)
    # an orthonormal partner of p in the plane of the circle
    u = q - cosang * p
    if np.linalg.norm(u) < 1e-12 * radius:
        # antipodal or equal: pick any orthogonal direction
        axis = int(np.argmin(np.abs(p)))
        e = np.zeros(3)
        e[axis] = 1.0
        u = e - np.dot(e, p) / radius**2 * p
    u = u / np.linalg.norm(u) * radius
    ts = np.linspace(0.0, ang, n + 1)
    pts = np.cos(ts)[:, None] * p + np.sin(ts)[:, None] * u
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def torus_bruteforce_dist(p, q, periods, reach=3):
    """Minimize the Euclidean distance over lattice translates of q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    periods = np.asarray(periods, dtype=float)
    best = math.inf
    from itertools import product

    for ks in product(range(-reach, reach + 1), repeat=len(periods)):
        cand = q + np.array(ks) * periods
        best = min(best, float(np.linalg.norm(cand - p)))
    return best


def richardson_matrix(image_coords, w0, h=1e-5):
    """Richardson-extrapolated Jacobian of a 2-d map from two central steps."""

    def central(step):
        cols = []
        for a in range(2):
            e = np.zeros(2)
            e[a] = step
            cols.append((image_coords(w0 + e) - image_coords(w0 - e)) / (2 * step))
        return np.stack(cols, axis=-1)

    coarse = central(h)
    fine = central(h / 2)
    return (4 * fine - coarse) / 3


def conformal_path_stationarity(points, phi, total_time=1.0):
    """Max discrete first-variation residual of the weighted path energy.

    For samples of a true geodesic of the conformally weighted metric the
    residual shrinks at second order in the sample spacing; a wrong flow
    leaves an O(1) residual.  Returned value is the sup over interior
    points of the tangentially projected gradient norm.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts) - 1
    dt = total_time / n
    radius = float(np.linalg.norm(pts[0]))

    def energy(ps):
        mids = 0.5 * (ps[:-1] + ps[1:])
        mids = mids / np.linalg.norm(mids, axis=1, keepdims=True) * radius
        w = phi(mids)
        chords = np.sum((ps[1:] - ps[:-1]) ** 2, axis=1)
        return float(np.sum(w * chords) / dt)

    worst = 0.0
    fd = 1e-6
    for i in range(1, n):
        norm_dir = pts[i] / radius
        grad = np.zeros(3)
        for a in range(3):
            e = np.zeros(3)
            e[a] = fd
            for sign in (1.0, -1.0):
                shifted = pts.copy()
                moved = pts[i] + sign * e
                shifted[i] = moved / np.linalg.norm(moved) * radius
                grad[a] += sign * energy(shifted)
        grad /= 2 * fd
        tangential = grad - np.dot(grad, norm_dir) * norm_dir
        worst = max(worst, float(np.linalg.norm(tangential)))
    return worst


def ray_sweep_ratio(f1, rays, psi, steps=10):
    """Largest C^1 composition ratio along a dense sweep of each probe ray.

    A ray (lam, q) is swept at f1 + c q for `steps` values of c up to lam,
    the sampled point c = lam included, so the sweep can only raise the
    sampled witness.  The jet distance is the package's own: what is
    independent here is the sampling, not the stencil.
    """
    from mapcalc.gridfn import GridFunction, grid_jet_sup_diff

    sweep = 0.0
    for lam, ray in rays:
        for c in np.linspace(lam / steps, lam, steps):
            f2 = GridFunction(ray.lo, ray.hi, f1.values + c * ray.values)
            base = grid_jet_sup_diff(f1, f2, 1)
            if base < 1e-14:
                continue
            comp = grid_jet_sup_diff(f1.map_values(psi), f2.map_values(psi), 1)
            sweep = max(sweep, comp / base)
    return sweep


def probe_case_rays(rng, count):
    """The rays (lam, q) of ``composition_probe_case``'s samples f1 + lam q.

    Replays that function's draw loop, so on a copy of the generator it
    passes it yields the ray of each of its samples, in order.
    """
    from mapcalc.gridfn import GridFunction

    lo, hi, n = 0.0, 2 * math.pi, 400
    scale = 0.995
    rays = []
    for _ in range(count):
        w = rng.uniform(-1.0, 1.0, size=2)
        w = w / (np.abs(w).sum() + 1e-12)
        phase = rng.uniform(0, 2 * math.pi, size=2)
        lam = math.exp(rng.uniform(math.log(0.01), math.log(0.3)))

        def ray(x, w=w, phase=phase):
            direction = w[0] * np.sin(2 * x + phase[0]) + w[1] * np.cos(x + phase[1])
            return scale * (direction - np.sin(x))

        rays.append((lam, GridFunction.sample(ray, lo, hi, n)))
    return rays


def probe_per_radius_ladder(psi, f1, samples, ladder, k, box):
    """Witnesses along a radius ladder from one probe per radius, each over
    the samples within that jet distance of f1."""
    from mapcalc.gridfn import grid_jet_sup_diff
    from mapcalc.topology import composition_bound_probe

    out = []
    for R in sorted(ladder):
        admissible = [f2 for f2 in samples if grid_jet_sup_diff(f1, f2, k) <= R + 1e-12]
        out.append(composition_bound_probe(psi, f1, admissible, R, k, box=box))
    return out


def unwrap_lift(values, periods):
    """Continuous lift of torus-valued grid data by ``np.unwrap``.

    Columns are unwrapped along the first grid axis; on 2-d grids the
    per-column constants are then fixed by unwrapping the first row.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    for a, period in enumerate(np.asarray(periods, dtype=float)):
        lifted = np.unwrap(values[..., a], period=period, axis=0)
        if values.ndim == 3:
            row0 = np.unwrap(lifted[0, :], period=period)
            lifted = lifted + (row0 - lifted[0, :])[None, :]
        out[..., a] = lifted
    return out


def full_unwrap(p, period):
    """``mapcalc.target_charts.unwrap`` with every step sent through
    ``mod_periods``, the reference for its reduction of only the steps that
    can jump."""
    from mapcalc.manifolds import mod_periods

    dd = p[1:] - p[:-1]
    high = period / 2
    low = -high
    ddmod = mod_periods(dd - low, period) + low
    np.copyto(ddmod, high, where=(ddmod == low) & (dd > 0))
    correct = ddmod - dd
    np.copyto(correct, 0, where=abs(dd) < high)
    up = np.array(p, dtype=float)
    up[1:] = p[1:] + correct.cumsum(axis=0)
    return up


def cap_chart_rep(chart, values):
    """``SphereCapChart.rep`` with the frame at the cap center built on every call."""
    from mapcalc.manifolds import SPHERE, TargetManifold, dot, frames_at

    r = chart.radius
    dots = dot(values, chart.center)[..., None]
    tang = values - dots * chart.center
    u = 2.0 * r * tang / np.maximum(r + dots, 0.02 * r)
    legs = frames_at(TargetManifold(SPHERE, radius=r), r * chart.center)
    return np.stack([dot(u, legs[a]) for a in range(2)], axis=-1)


# ---------------------------------------------------------------------------
# serial transition residuals: one trial at a time, the bits the stacked
# trial batches of ``mapcalc.experiments`` must reproduce per trial


def _fourier_sum(out, theta, coeffs):
    """``out`` plus the sine and cosine modes k + 1 of ``coeffs[k]``, in the
    order of the sum, by direct trigonometry."""
    for k in range(len(coeffs)):
        out = out + np.sin((k + 1) * theta)[..., None] * coeffs[k, 0]
        out = out + np.cos((k + 1) * theta)[..., None] * coeffs[k, 1]
    return out


def serial_random_center(m, resolution, rng):
    """One random Fourier loop into ``m``, drawn and sampled on its own."""
    from mapcalc.atlas import CIRCLE_ATLAS, MapFormula, sample_map

    if m.kind == "sphere":
        coeffs = 0.15 * rng.standard_normal((3, 2, 3)) / np.arange(1, 4)[:, None, None]

        def fn(mesh):
            theta = mesh[..., 0]
            base = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=-1)
            base = _fourier_sum(base, theta, coeffs)
            return m.radius * base / np.linalg.norm(base, axis=-1)[..., None]
    else:
        dim = len(m.periods)
        w = rng.integers(-1, 2, size=dim).astype(float)
        amp = 0.15 * rng.standard_normal((3, 2, dim)) / np.arange(1, 4)[:, None, None]
        shift = rng.uniform(0, 2 * np.pi, size=dim)

        def fn(mesh):
            theta = mesh[..., 0]
            return _fourier_sum(theta[..., None] * w + shift, theta, amp)

    return sample_map(CIRCLE_ATLAS, m, MapFormula("serial_loop", fn), resolution)


def serial_random_section(f, rng, sup):
    """One random vector field along ``f``, drawn and evaluated on its own."""
    from mapcalc.sections import section_from_formula

    amb = f.target.ambient_dim
    coeff = rng.standard_normal((3, 2, amb))
    coeff = coeff / np.arange(1, 4)[:, None, None]
    const = rng.standard_normal(amb)

    def vf(mesh):
        theta = mesh[..., 0]
        return _fourier_sum(np.broadcast_to(const, theta.shape + (amb,)), theta, coeff)

    return section_from_formula(f, vf, sup_scale=sup)


def serial_cocycle_residual(m, resolution, rng):
    from mapcalc.charts import chart_inverse, default_delta, transition
    from mapcalc.sections import section_max_diff

    f = serial_random_center(m, resolution, rng)
    delta = default_delta(f)
    g = chart_inverse(f, serial_random_section(f, rng, 0.25 * delta))
    h = chart_inverse(f, serial_random_section(f, rng, 0.25 * delta))
    s = serial_random_section(f, rng, 0.2 * delta)
    via = transition(g, h, transition(f, g, s))
    direct = transition(f, h, s)
    return section_max_diff(via, direct)


def serial_derivative_identity_residual(m, resolution, rng):
    """(abs, rel) of one trial."""
    from mapcalc.charts import chart_inverse, default_delta
    from mapcalc.experiments import transition_differences
    from mapcalc.sections import section_max_diff, section_sup

    eps = 1e-2 if m.kind == "torus" else 1e-4
    f = serial_random_center(m, resolution, rng)
    delta = default_delta(f)
    g = chart_inverse(f, serial_random_section(f, rng, 0.3 * delta))
    s0 = serial_random_section(f, rng, 0.25 * delta)
    s = serial_random_section(f, rng, 0.2 * delta)
    ((fd, analytic),) = transition_differences(f, g, s0, [s], m, m, eps, step=1e-6)
    resid = section_max_diff(fd, analytic)
    return resid, resid / max(section_sup(analytic), 1e-12)


def serial_chain_rule_residual(m, resolution, rng):
    from mapcalc.charts import chart_inverse, default_delta, transition, transition_derivative
    from mapcalc.sections import section_max_diff, section_sup

    f = serial_random_center(m, resolution, rng)
    delta = default_delta(f)
    g = chart_inverse(f, serial_random_section(f, rng, 0.2 * delta))
    h = chart_inverse(f, serial_random_section(f, rng, 0.2 * delta))
    s0 = serial_random_section(f, rng, 0.2 * delta)
    s = serial_random_section(f, rng, 0.15 * delta)
    t0 = transition(f, g, s0)
    via = transition_derivative(g, h, t0, transition_derivative(f, g, s0, s))
    direct = transition_derivative(f, h, s0, s)
    resid = section_max_diff(via, direct)
    return resid / max(section_sup(direct), 1e-12)


# ---------------------------------------------------------------------------
# lattice indexing chart by chart: each chart box rounded to lattice indices
# on its own, node pairs matched chart pair by chart pair, and each loop
# point's node chosen by the compact piece that holds it; the reference for
# the one layout that ``mapcalc.atlas.chart_layout`` builds


def grid_ranges(chart, resolution):
    """The first and last lattice index of a chart's grid, per axis: the
    lattice points in the closure of its enlarged box."""
    h = 2.0 * math.pi / resolution
    return [(math.ceil(lo / h - 1e-9), math.floor(hi / h + 1e-9)) for lo, hi in chart.enlarged]


def grid_coords(chart, resolution):
    """The chart coordinates of a chart's grid, per axis."""
    h = 2.0 * math.pi / resolution
    return [np.arange(j0, j1 + 1) * h for j0, j1 in grid_ranges(chart, resolution)]


def compact_slices(chart, resolution):
    """Index slices selecting the compact-piece nodes inside the chart grid."""
    h = 2.0 * math.pi / resolution
    out = []
    for (j0, _), (klo, khi) in zip(grid_ranges(chart, resolution), chart.compact):
        a0, a1 = math.ceil(klo / h - 1e-9), math.floor(khi / h + 1e-9)
        out.append(slice(a0 - j0, a1 - j0 + 1))
    return tuple(out)


def shared_nodes(atlas, resolution, ci, cj):
    """Index pairs into the grids of charts ``ci`` and ``cj`` of the nodes at
    lattice indices equal or one period apart along each axis, in blocks."""
    ri = grid_ranges(atlas.charts[ci], resolution)
    rj = grid_ranges(atlas.charts[cj], resolution)
    per_axis = []
    for (i0, i1), (j0, j1) in zip(ri, rj):
        ji = np.arange(i0, i1 + 1)
        matches = []
        for t in (-resolution, 0, resolution):
            mask = (ji + t >= j0) & (ji + t <= j1)
            if np.any(mask):
                matches.append((np.nonzero(mask)[0], ji[mask] + t - j0))
        per_axis.append(matches)
    out = []
    for blocks in itertools.product(*per_axis):
        mi = np.meshgrid(*(ia for ia, _ in blocks), indexing="ij")
        mj = np.meshgrid(*(ja for _, ja in blocks), indexing="ij")
        out.append((tuple(m.ravel() for m in mi), tuple(m.ravel() for m in mj)))
    return out


def pairwise_overlap_residual(f):
    """Max target distance between the charts' values over every pair of
    ``shared_nodes``, chart pair by chart pair."""
    from mapcalc.finite_diff import sup
    from mapcalc.manifolds import dist_points

    return sup(
        np.max(dist_points(f.target, f.values[ci][idx_i], f.values[cj][idx_j]))
        for ci, cj in itertools.combinations(range(len(f.atlas.charts)), 2)
        for idx_i, idx_j in shared_nodes(f.atlas, f.resolution, ci, cj)
    )


def loop_owners(atlas, n):
    """The node of each loop lattice point: the node of the chart whose
    compact piece holds the point, half-open at its upper end so the pieces
    tile the circle."""
    from mapcalc.atlas import chart_layout

    h = 2.0 * math.pi / n
    layout = chart_layout(atlas, n)
    owner = np.full(n, -1)
    for chart in atlas.charts:
        (j0, _), = grid_ranges(chart, n)
        (ksl,) = compact_slices(chart, n)
        local = np.arange(ksl.start, ksl.stop)
        local = local[(j0 + local) * h < chart.compact[0][1] - 1e-12]
        owner[(j0 + local) % n] = layout.chart_nodes(chart.id)[local]
    assert np.all(owner >= 0), "compact pieces do not cover the loop lattice"
    return owner


# ---------------------------------------------------------------------------
# serial descent: every energy and gradient from fresh logarithms, the step
# doubled after every accepted step


def serial_descend(f0, steps, step_size, grad_tol, max_halvings=30):
    """(final map, trace rows) of the chart-retraction descent from ``f0``.

    Each energy and each gradient takes its logarithms afresh, toward the
    loop neighbors that ``np.roll`` finds, and every accepted step is
    doubled as the next trial, even after a halving.
    """
    from mapcalc.charts import chart_inverse, default_delta
    from mapcalc.energy import _loop_lattice, loop_values
    from mapcalc.manifolds import inner_points, log_points
    from mapcalc.sections import make_section, section_scale, section_sup

    def energy(f):
        vals = loop_values(f)
        gaps = log_points(f.target, vals, np.roll(vals, -1, axis=0))
        sq = inner_points(f.target, vals, gaps, gaps)
        return 0.5 * math.fsum(sq.tolist()) / (2.0 * math.pi / f.resolution)

    def direction(f):
        n, h = f.resolution, 2.0 * math.pi / f.resolution
        vals = loop_values(f)
        owner, lattice = _loop_lattice(f.atlas, n)
        lap = (log_points(f.target, vals, np.roll(vals, -1, axis=0))
               + log_points(f.target, vals, np.roll(vals, 1, axis=0))) / h**2
        grad = make_section(f, (-lap)[lattice]).vectors[owner]
        symbol = 1.0 + (2.0 * np.sin(np.pi * np.arange(n) / n) / h) ** 2
        smooth = np.fft.ifft(np.fft.fft(grad, axis=0) / symbol[:, None], axis=0).real
        return make_section(f, smooth[lattice])

    f, rows, trial = f0, [], step_size
    e = energy(f)
    for it in range(steps):
        d = direction(f)
        gnorm = section_sup(d)
        if gnorm <= grad_tol:
            rows.append((it, e, gnorm, trial))
            break
        delta = default_delta(f)
        for _ in range(max_halvings + 1):
            if trial * gnorm < delta:
                candidate = chart_inverse(f, section_scale(d, -trial))
                cand_energy = energy(candidate)
                if cand_energy <= e:
                    break
            trial *= 0.5
        else:
            raise AssertionError(f"no decreasing step at iterate {it}")
        f, e = candidate, cand_energy
        rows.append((it, e, gnorm, trial))
        trial = 2.0 * trial
    return f, rows


# ---------------------------------------------------------------------------
# test-only constructions and diagnostics, built on the package's own layers:
# a constant map, the zero section, the loop pairing, the geodesic residual
# and the fixed-chart step that the moving-chart descent is checked against


def constant_formula(m, coords):
    """The constant map at ``coords``, reduced onto ``m``."""
    from mapcalc.atlas import MapFormula
    from mapcalc.manifolds import reduce_points

    p = reduce_points(m, np.asarray(coords, dtype=float))

    def fn(mesh):
        return np.broadcast_to(p, mesh.shape[:-1] + (len(p),)).copy()

    return MapFormula(f"const{tuple(np.round(p, 3))}", fn)


def chart_node_array(f, blocks):
    """One node array along ``f`` from per-chart arrays over the chart grids
    (the grid axes, then any per-node shape), written through the chart
    views.  A node that charts share must get the same bits from each."""
    tail = blocks[0].shape[f.atlas.dim:]
    out = np.full((len(f.nodes), math.prod(tail)), np.nan)
    for view, block in zip(f.views(out), blocks, strict=True):
        block = block.reshape(view.shape)
        written = ~np.isnan(view)
        assert np.array_equal(view[written], block[written])
        view[...] = block
    return out.reshape(out.shape[:1] + tail)


def zero_section(f):
    from mapcalc.sections import make_section

    return make_section(f, np.zeros_like(f.nodes))


def loop_inner(f, s, t):
    """Weighted inner product pairing gradients with directional derivatives."""
    from mapcalc.energy import _loop_lattice, loop_step, loop_values
    from mapcalc.manifolds import inner_points

    vals = loop_values(f)
    owner = _loop_lattice(f.atlas, f.resolution)[0]
    sv, tv = s.vectors[owner], t.vectors[owner]
    return float(np.sum(inner_points(f.target, vals, sv, tv)) * loop_step(f))


def geodesic_residual(f):
    """Sup norm of the discrete geodesic equation over the loop nodes."""
    from mapcalc.energy import _geodesic_laplacian, loop_values
    from mapcalc.manifolds import norm_points

    vals = loop_values(f)
    return float(np.max(norm_points(f.target, vals, _geodesic_laplacian(f, vals))))


def fixed_chart_step(f0, s, step_size):
    """One descent step taken inside the fixed chart at f0.

    The tangent step at the current map is transported into the chart
    through the inverse of the chart-inverse fiber derivative, then added
    linearly to the section.  This is the moving-chart update seen through
    the fixed chart, so the two trajectories agree to second order in the
    step size.
    """
    from mapcalc.charts import apply_fiber_matrices, chart_inverse, metric_transition_batch
    from mapcalc.energy import energy_gradient
    from mapcalc.sections import section_add, section_scale

    m = f0.target
    current = chart_inverse(f0, s)
    mats, _ = metric_transition_batch(f0, current, s, [], m, m, step=1e-6)
    chart_grad = apply_fiber_matrices(current, f0, np.linalg.inv(mats), energy_gradient(current))
    return section_add(s, section_scale(chart_grad, -step_size))
