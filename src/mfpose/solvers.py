"""Minimal and refinement solvers for two-view and 2D/3D pose estimation.

All image measurements here are in normalized camera coordinates (pixel
minus principal point over focal) unless a function explicitly takes
intrinsics.  2D-2D matches are packed as (n, 4) arrays
[x_ref, y_ref, x_query, y_query]; the essential matrix satisfies
q_query^T E q_ref = 0 on homogeneous rays (x, y, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import robust
from .errors import (
    CheiralityError,
    DegenerateSampleError,
    InvalidParameterError,
)
from .geometry import CameraIntrinsics, Pose, rotation_from_axis_angle, skew

# --------------------------------------------------------------------------
# Essential matrix
# --------------------------------------------------------------------------

# Monomial bookkeeping for the five-point polynomial system.  Degree <= 3
# monomials in (x, y, z) ordered so that the ten leading ones (up to xy)
# come first; the ten trailing columns factor as x*(z^2,z,1), y*(z^2,z,1),
# (z^3,z^2,z,1), which is what the z-polynomial elimination below relies on.
_MONOMIALS = [
    (3, 0, 0), (0, 3, 0), (2, 1, 0), (1, 2, 0), (2, 0, 1),
    (2, 0, 0), (0, 2, 1), (0, 2, 0), (1, 1, 1), (1, 1, 0),
    (1, 0, 2), (1, 0, 1), (1, 0, 0), (0, 1, 2), (0, 1, 1),
    (0, 1, 0), (0, 0, 3), (0, 0, 2), (0, 0, 1), (0, 0, 0),
]
_MON_INDEX = {m: i for i, m in enumerate(_MONOMIALS)}
# Exponents contributed by each of the four linear-combination variables
# (x, y, z, and the constant term).
_VAR_EXP = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))


def _monomial_table() -> np.ndarray:
    table = np.empty((4, 4, 4), dtype=np.intp)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                exp = tuple(
                    _VAR_EXP[a][i] + _VAR_EXP[b][i] + _VAR_EXP[c][i] for i in range(3)
                )
                table[a, b, c] = _MON_INDEX[exp]
    return table


_MON3 = _monomial_table()
_LEVI = np.zeros((3, 3, 3))
for _i, _j, _k, _s in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1), (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)):
    _LEVI[_i, _j, _k] = _s


def _hom(xy: np.ndarray) -> np.ndarray:
    return np.column_stack([xy, np.ones(len(xy))])


def _constraint_matrices(basis: np.ndarray) -> np.ndarray:
    """(K, 10, 20) coefficients of det(E) = 0 and 2*E*E^T*E - tr(E*E^T)*E = 0.

    basis is the (K, 4, 3, 3) stack of null-space matrices; E = x*B0 + y*B1 +
    z*B2 + B3.  Rows are polynomials over the _MONOMIALS columns.  One
    np.add.at over every row adds each term in the one-sample order, which
    a one-hot matmul would not.
    """
    k = len(basis)
    det = np.einsum("ijk,nai,nbj,nck->nabc", _LEVI, basis[:, :, 0, :], basis[:, :, 1, :], basis[:, :, 2, :])
    # E E^T E for every (a, b, c) triple, summed in the order that
    # np.einsum("naip,nbqp,ncqj->nabcij") sums in (for each q a running sum
    # over p from zero, added to the total) without its per-element overhead
    eet_e = 0.0
    for q in range(3):
        right = basis[:, None, None, :, None, q, :]
        part = 0.0
        for p in range(3):
            part = part + (basis[:, :, None, None, :, None, p] * basis[:, None, :, None, None, None, q, p]) * right
        eet_e = part + eet_e
    tr_e = np.einsum("napq,nbpq,ncij->nabcij", basis, basis, basis)
    cubic = (2.0 * eet_e - tr_e).reshape(k, 64, 9).transpose(0, 2, 1)
    terms = np.concatenate([det.reshape(k, 1, 64), cubic], axis=1).reshape(k * 10, 64)
    coef = np.zeros((k, 10, 20))
    np.add.at(coef.reshape(-1), np.arange(0, k * 200, 20)[:, None] + _MON3.ravel(), terms)
    return coef


def _z_rows(row_i: np.ndarray, row_j: np.ndarray) -> np.ndarray:
    """Combine reduced rows i - z*j into three z-polynomials (x, y, 1 parts).

    Rows hold coefficients over the trailing 10 columns grouped as
    x*(z^2, z, 1) | y*(z^2, z, 1) | (z^3, z^2, z, 1); the leading monomials
    of the two rows cancel by construction.  Returns (..., 3, 5) coefficients,
    highest degree first (numpy poly convention); the cubic x and y parts
    carry a leading zero, which leaves Horner evaluation bit-identical.
    """
    zero = np.zeros(row_i.shape[:-1] + (1,))
    px = np.concatenate([zero, row_i[..., 0:3]], axis=-1) - np.concatenate([row_j[..., 0:3], zero], axis=-1)
    py = np.concatenate([zero, row_i[..., 3:6]], axis=-1) - np.concatenate([row_j[..., 3:6], zero], axis=-1)
    p1 = np.concatenate([zero, row_i[..., 6:10]], axis=-1) - np.concatenate([row_j[..., 6:10], zero], axis=-1)
    return np.stack([np.concatenate([zero, px], axis=-1), np.concatenate([zero, py], axis=-1), p1], axis=-2)


def _horner(coeffs, x):
    """Polynomial at x, coefficients along the first axis, highest degree first."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _polished_real_roots(poly: np.ndarray, is_real) -> list[float]:
    """Roots of `poly` (highest degree first) that `is_real` accepts, Newton-polished.

    Companion-matrix roots (np.roots) are not always at 1e-12, so each kept
    root takes two Newton steps, stopping early at a vanishing derivative.
    """
    deriv = np.polyder(poly)
    roots = []
    for root in np.roots(poly):
        if not is_real(root):
            continue
        x = float(root.real)
        for _ in range(2):
            dx = _horner(deriv, x)
            if abs(dx) < 1e-30:
                break
            x -= _horner(poly, x) / dx
        roots.append(x)
    return roots


def _polish_roots(polys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """_polished_real_roots' two Newton steps on every root x of its own row of polys at once."""
    deriv = polys[:, :-1] * np.arange(polys.shape[1] - 1, 0, -1)  # np.polyder, row by row
    live = np.ones(len(x), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # as with Python floats, inf and nan just flow
        for _ in range(2):
            dx = _horner(deriv.T, x)
            live &= ~(np.abs(dx) < 1e-30)  # a nan derivative does not stop the steps either
            x = np.where(live, x - _horner(polys.T, x) / np.where(live, dx, 1.0), x)
    return x


def _frobenius(e: np.ndarray) -> np.ndarray:
    """Norms of a (P, 3, 3) stack, bit-identical to np.linalg.norm of each matrix (a dot product).

    np.linalg.norm(axis=...) and einsum sum in other orders.
    """
    flat = e.reshape(-1, 1, 9)
    return np.sqrt(flat @ flat.reshape(-1, 9, 1)).reshape(-1)


def essential_from_pose(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """E = [t]x R for the relative pose mapping reference to query frame."""
    t = np.asarray(translation, dtype=float)
    if np.linalg.norm(t) == 0:
        raise InvalidParameterError("essential matrix undefined for zero translation")
    e = skew(t) @ np.asarray(rotation, dtype=float)
    return e / np.linalg.norm(e)


def _reduce_systems(coef: np.ndarray) -> np.ndarray:
    """Gauss-Jordan reduce each (10, 20) constraint matrix; NaN for a singular one.

    One singular sample makes the stacked solve raise, so that window falls
    back to one solve per sample and the others keep their solutions.
    """
    try:
        return np.linalg.solve(coef[:, :, :10], coef[:, :, 10:])
    except np.linalg.LinAlgError:
        reduced = np.full((len(coef), 10, 10), np.nan)
        for i, c in enumerate(coef):
            try:
                reduced[i] = np.linalg.solve(c[:, :10], c[:, 10:])
            except np.linalg.LinAlgError:
                pass
        return reduced


def _z_polynomial(z_system: np.ndarray) -> np.ndarray:
    """Degree-10 determinant of one (3, 3, 5) z-system; all three cofactor products are degree 10."""
    (k1, k2, k3), (l1, l2, l3), (m1, m2, m3) = ((r[0, 1:], r[1, 1:], r[2]) for r in z_system)
    return (
        np.convolve(k1, np.convolve(l2, m3) - np.convolve(l3, m2))
        + np.convolve(k2, np.convolve(l3, m1) - np.convolve(l1, m3))
        + np.convolve(k3, np.convolve(l1, m2) - np.convolve(l2, m1))
    )


def _real_roots(polys: np.ndarray):
    """(owner row, root) of every real root (|imag| <= 1e-10) of the rows of polys, as np.roots finds them.

    np.roots is the eigenvalues of the companion matrix once leading and
    trailing zeros are stripped; rows with none to strip are solved as one
    stack, the rest one at a time.  All-zero rows have no roots.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = -polys[:, 1:] / polys[:, :1]
    generic = (polys[:, -1] != 0) & np.all(np.isfinite(top), axis=1)
    companion = np.zeros((int(generic.sum()), 10, 10))
    companion[:, 0] = top[generic]
    companion[:, np.arange(1, 10), np.arange(9)] = 1.0
    stacked = iter(np.linalg.eigvals(companion))
    owner, roots = [], []
    for i, poly in enumerate(polys):
        if generic[i]:
            candidates = next(stacked)
        elif np.any(poly != 0):
            try:
                candidates = np.roots(poly)
            except np.linalg.LinAlgError:  # an overflowing companion matrix
                continue
        else:
            continue
        real = candidates.real[np.abs(candidates.imag) <= 1e-10]
        owner += [i] * len(real)
        roots.append(real)
    return np.array(owner, dtype=np.intp), np.concatenate(roots) if roots else np.empty(0)


def essential_five_point(samples: np.ndarray) -> list[list[np.ndarray]]:
    """Minimal five-point relative pose solver over a (K, 5, 4) stack of samples.

    Returns, per sample, every real essential matrix consistent with its five
    normalized matches (up to ten).  Each constraint system is Gauss-Jordan
    reduced and collapsed to a degree-10 polynomial in z whose roots come
    from the companion-matrix eigenvalues (np.roots); roots with |imag| >
    1e-10 are discarded.  A numerically degenerate sample yields an empty
    list.  Every stage runs per sample, or stacked in a form that rounds
    exactly as per sample, so a sample's solutions do not depend on the
    other samples in the stack.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3 or samples.shape[1:] != (5, 4):
        raise InvalidParameterError(f"five-point solver needs (K, 5, 4) samples, got {samples.shape}")
    count = len(samples)
    solutions: list[list[np.ndarray]] = [[] for _ in range(count)]
    ones = np.ones((count, 5, 1))
    qr = np.concatenate([samples[:, :, :2], ones], axis=2)
    qq = np.concatenate([samples[:, :, 2:], ones], axis=2)
    design = (qq[:, :, :, None] * qr[:, :, None, :]).reshape(count, 5, 9)
    basis = np.linalg.svd(design)[2][:, -4:].reshape(count, 4, 3, 3)

    reduced = _reduce_systems(_constraint_matrices(basis))
    # (K, 3, 3, 5): rows k, l, m of the z-system, each split into x, y and 1 parts
    z_system = np.stack([_z_rows(reduced[:, i], reduced[:, i + 1]) for i in (4, 6, 8)], axis=1)
    polys = np.zeros((count, 11))  # all-zero rows have no roots
    for i in np.flatnonzero(np.isfinite(reduced).all(axis=(1, 2))):
        poly = _z_polynomial(z_system[i])
        if np.all(np.isfinite(poly)):  # np.roots raises on inf and nan
            polys[i] = poly
    owner, z = _real_roots(polys)

    # every (sample, real root) pair at once from here on
    z = _polish_roots(polys[owner], z)
    parts = _horner(np.moveaxis(z_system[owner], -1, 0), z[:, None, None])  # (P, 3, 3): x, y and 1 parts at z
    finite = np.isfinite(parts).all(axis=(1, 2))  # np.linalg.lstsq raises on the others
    owner, z, parts = owner[finite], z[finite], parts[finite]
    # no stacked least-squares rounds as np.linalg.lstsq does, so it runs per root
    xy = np.array([np.linalg.lstsq(p[:, :2], -p[:, 2], rcond=None)[0] for p in parts]).reshape(-1, 2)
    b = basis[owner]
    e = xy[:, 0, None, None] * b[:, 0] + xy[:, 1, None, None] * b[:, 1] + z[:, None, None] * b[:, 2] + b[:, 3]
    norm = _frobenius(e)
    keep = (norm != 0) & np.isfinite(norm)
    owner, e = owner[keep], e[keep] / norm[keep, None, None]

    # project onto the essential manifold: singular values (s, s, 0)
    u, s, vt = np.linalg.svd(e)
    sigma = np.zeros_like(e)
    sigma[:, 0, 0] = sigma[:, 1, 1] = 0.5 * (s[:, 0] + s[:, 1])
    e = u @ sigma @ vt
    e = e / _frobenius(e)[:, None, None]
    residual = np.abs(np.einsum("pni,pij,pnj->pn", qq[owner], e, qr[owner])).max(axis=1)
    fits = ~(residual > 1e-8)
    owner, e = owner[fits], e[fits]
    # a candidate repeats an earlier kept one of its sample when |<E, E'>| ~ 1;
    # row sums of the products round as np.sum of each product does
    j, k = np.nonzero((owner[:, None] == owner) & np.tri(len(owner), k=-1, dtype=bool))
    repeats = np.zeros((len(owner), len(owner)), dtype=bool)
    repeats[j, k] = np.abs((e[j] * e[k]).reshape(-1, 9).sum(axis=1)) > 1.0 - 1e-9
    kept: list[int] = []
    for candidate in range(len(owner)):
        if not repeats[candidate, kept].any():
            kept.append(candidate)
            solutions[owner[candidate]].append(e[candidate])
    return solutions


def triangulate_midpoints(rotation: np.ndarray, translation: np.ndarray, matches: np.ndarray):
    """Midpoint triangulation of (n, 4) normalized matches, reference frame.

    Returns (points, well_conditioned).  Ill-conditioned rows (near-parallel
    rays or near-zero baseline) fall back to a point along the reference ray
    and are flagged False; such a point is only meant for cheirality sign
    checks.
    """
    rotation = np.asarray(rotation, dtype=float)
    translation = np.asarray(translation, dtype=float)
    matches = np.asarray(matches, dtype=float).reshape(-1, 4)
    d_ref = _hom(matches[:, :2])
    d_query = _hom(matches[:, 2:]) @ rotation  # rows: R.T @ ray_query
    center = -(rotation.T @ translation)

    a11 = np.sum(d_ref * d_ref, axis=1)
    a12 = np.sum(d_ref * d_query, axis=1)
    a22 = np.sum(d_query * d_query, axis=1)
    det = a11 * a22 - a12 * a12
    baseline = float(np.linalg.norm(center))
    well = (det > 1e-12 * a11 * a22) & (baseline > 1e-12)
    b1 = d_ref @ center
    b2 = d_query @ center
    safe_det = np.where(well, det, 1.0)
    s = np.where(well, (b1 * a22 - b2 * a12) / safe_det, b1 / a11)
    u = np.where(well, (a12 * b1 - a11 * b2) / safe_det, 0.0)
    points = 0.5 * (s[:, None] * d_ref + center + u[:, None] * d_query)
    return points, well


def essential_pose_candidates(e: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The four (rotation, unit translation) decompositions of an essential matrix."""
    u, _, vt = np.linalg.svd(np.asarray(e, dtype=float))
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    w = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    t = u[:, 2] / np.linalg.norm(u[:, 2])
    return [(u @ w @ vt, t), (u @ w @ vt, -t), (u @ w.T @ vt, t), (u @ w.T @ vt, -t)]


def decompose_essential(e: np.ndarray, matches: np.ndarray):
    """Resolve an essential matrix into (rotation, unit translation).

    Of the four algebraic decompositions, returns the one that places the
    most matches in front of both cameras (midpoint triangulation); ties go
    to the candidate with the larger mean depth margin.  If no candidate
    puts any well-conditioned match in front of both cameras, raises
    CheiralityError.
    """
    matches = np.asarray(matches, dtype=float).reshape(-1, 4)
    if len(matches) == 0:
        raise InvalidParameterError("cheirality needs at least one match")
    candidates = essential_pose_candidates(e)

    best = None
    for rotation, translation in candidates:
        points, well = triangulate_midpoints(rotation, translation, matches)
        z_ref = points[:, 2]
        z_query = points @ rotation[2] + translation[2]
        front = well & (z_ref > 0) & (z_query > 0)
        count = int(front.sum())
        margin = float(np.minimum(z_ref[front], z_query[front]).mean()) if count else 0.0
        key = (count, margin)
        if best is None or key > best[0]:
            best = (key, rotation, translation)

    if best[0][0] == 0:
        raise CheiralityError("no decomposition places a match in front of both cameras")
    _, rotation, translation = best
    return rotation, translation / np.linalg.norm(translation)


def _damped_least_squares(x, evaluate, jacobian, update, damping, damping_cap, tolerance, max_iterations):
    """Levenberg-Marquardt loop of both refiners; returns (x, initial cost, cost, any step kept).

    evaluate(x) -> (cost, residuals, state), the cost infinite for an infeasible
    x; jacobian(x, residuals, state) differentiates the residuals; update(x,
    step) applies the solution of (J^T J + damping I) step = -J^T r.  A step
    that does not raise the cost is kept, its residuals and state reused, and
    the damping divided by 10 (floor 1e-12); a rejected step or a singular
    system multiplies it by 10.  Stops on a zero or non-finite cost, after a
    kept step whose relative drop is below `tolerance`, or when no step with
    damping below `damping_cap` is kept.
    """
    cost, residuals, state = evaluate(x)
    initial_cost, kept = cost, False
    for _ in range(max_iterations):
        if not 0.0 < cost < np.inf:
            break
        jac = jacobian(x, residuals, state)
        gradient = jac.T @ residuals
        hessian = jac.T @ jac
        while damping < damping_cap:
            try:
                step = np.linalg.solve(hessian + damping * np.eye(len(gradient)), -gradient)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            candidate = update(x, step)
            new_cost, new_residuals, new_state = evaluate(candidate)
            if new_cost <= cost:
                relative_drop = (cost - new_cost) / max(cost, 1e-300)
                x, cost, residuals, state = candidate, new_cost, new_residuals, new_state
                damping = max(damping / 10.0, 1e-12)
                kept = True
                if relative_drop < tolerance:
                    return x, initial_cost, cost, kept
                break
            damping *= 10.0
        else:
            break  # no step below the damping cap was kept
    return x, initial_cost, cost, kept


def refine_essential(e: np.ndarray, matches: np.ndarray) -> np.ndarray:
    """Levenberg-Marquardt on the Sampson error over the essential manifold.

    Minimal-sample hypotheses fit five noisy points exactly but generalize
    poorly; this polishes the 5 pose degrees of freedom (rotation plus
    translation direction) against all supplied matches.  The result is an
    exact essential matrix by construction.  Raises CheiralityError when the
    initial matrix cannot be decomposed against the matches.
    """
    matches = np.asarray(matches, dtype=float).reshape(-1, 4)
    rotation, t_dir = decompose_essential(e, matches)
    axis = np.array([1.0, 0.0, 0.0]) if abs(t_dir[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    b1 = np.cross(t_dir, axis)
    b1 /= np.linalg.norm(b1)
    b2 = np.cross(t_dir, b1)

    def build(p: np.ndarray) -> np.ndarray:
        rot = rotation_from_axis_angle(p[:3]) @ rotation
        direction = rotation_from_axis_angle(b1 * p[3] + b2 * p[4]) @ t_dir
        return essential_from_pose(rot, direction)

    def evaluate(p: np.ndarray):
        res = robust.sampson_error(build(p), matches)
        return float(np.sum(res**2)), res, None

    def jacobian(p: np.ndarray, res, state) -> np.ndarray:
        step_h = 1e-6
        perturbed = []
        for j in range(5):
            forward = p.copy()
            forward[j] += step_h
            backward = p.copy()
            backward[j] -= step_h
            perturbed += [build(forward), build(backward)]
        # central differences: the O(h^2) error keeps the convergence
        # floor near 1e-12, which the noiseless exactness regime needs
        rows = robust.sampson_error(np.stack(perturbed), matches)
        return np.ascontiguousarray(((rows[0::2] - rows[1::2]) / (2.0 * step_h)).T)

    params, *_ = _damped_least_squares(np.zeros(5), evaluate, jacobian, np.add, 1e-6, 1e8, 1e-10, 20)
    return build(params)


# --------------------------------------------------------------------------
# Perspective-n-point
# --------------------------------------------------------------------------


def _collinear(points: np.ndarray) -> bool:
    spread = float(np.abs(points - points.mean(axis=0)).max())
    area = np.linalg.norm(np.cross(points[1] - points[0], points[2] - points[0]))
    return area <= 1e-12 * max(spread * spread, 1e-30)


def pnp_p3p(points3d: np.ndarray, rays: np.ndarray) -> list[Pose]:
    """Three-point pose: world points + normalized image rays -> candidate poses.

    Solves the classic law-of-cosines distance system.  The ratio
    substitution reduces it to a quartic assembled with numpy polynomial
    arithmetic; each admissible root gives camera-frame points that are
    rigidly aligned to the world points.  Candidates that fail to reproject
    the sample to 1e-6 (normalized units) are dropped.
    """
    points3d = np.asarray(points3d, dtype=float).reshape(3, 3)
    rays = np.asarray(rays, dtype=float).reshape(3, 2)
    if _collinear(points3d):
        raise DegenerateSampleError("3D points are collinear")

    f = _hom(rays)
    f /= np.linalg.norm(f, axis=1, keepdims=True)
    d01 = np.linalg.norm(points3d[0] - points3d[1])
    d02 = np.linalg.norm(points3d[0] - points3d[2])
    d12 = np.linalg.norm(points3d[1] - points3d[2])
    if min(d01, d02, d12) <= 0:
        raise DegenerateSampleError("3D points are coincident")
    cos01 = float(f[0] @ f[1])
    cos02 = float(f[0] @ f[2])
    cos12 = float(f[1] @ f[2])

    r01 = (d01 / d02) ** 2
    r12 = (d12 / d02) ** 2
    # q(v) = 1 + v^2 - 2 v cos02; u = N(v)/D(v) after eliminating u^2.
    q = np.array([1.0, -2.0 * cos02, 1.0])
    n_poly = np.array([-1.0, 0.0, 1.0]) - (r01 - r12) * q
    d_poly = np.array([-2.0 * cos12, 2.0 * cos01])
    nd = np.convolve(n_poly, d_poly)  # degree 3, pad to the quartic's length
    quartic = (
        np.convolve(n_poly, n_poly)
        - 2.0 * cos01 * np.concatenate([[0.0], nd])
        + np.convolve(np.array([-r01, 2.0 * r01 * cos02, 1.0 - r01]), np.convolve(d_poly, d_poly))
    )
    if not np.any(np.abs(quartic) > 0):
        return []

    poses: list[Pose] = []
    for v in _polished_real_roots(quartic, lambda root: abs(root.imag) <= 1e-8 * max(1.0, abs(root.real))):
        qv = _horner(q, v)
        dd = _horner(d_poly, v)
        if qv <= 0 or abs(dd) < 1e-12:
            continue
        u = _horner(n_poly, v) / dd
        k0 = d02 / np.sqrt(qv)
        dists = np.array([k0, u * k0, v * k0])
        if np.any(dists <= 0):
            continue
        # Newton on the three distance equations: the quartic root alone can
        # lose precision near double roots, the distance system does not.
        for _ in range(3):
            k0, k1, k2 = dists
            g = np.array(
                [
                    k0 * k0 + k1 * k1 - 2 * k0 * k1 * cos01 - d01 * d01,
                    k0 * k0 + k2 * k2 - 2 * k0 * k2 * cos02 - d02 * d02,
                    k1 * k1 + k2 * k2 - 2 * k1 * k2 * cos12 - d12 * d12,
                ]
            )
            jac = 2.0 * np.array(
                [
                    [k0 - k1 * cos01, k1 - k0 * cos01, 0.0],
                    [k0 - k2 * cos02, 0.0, k2 - k0 * cos02],
                    [0.0, k1 - k2 * cos12, k2 - k1 * cos12],
                ]
            )
            try:
                step = np.linalg.solve(jac, g)
            except np.linalg.LinAlgError:
                break
            dists = dists - step
        if np.any(dists <= 0) or not np.all(np.isfinite(dists)):
            continue
        camera_points = dists[:, None] * f
        try:
            pose = procrustes_align(points3d, camera_points)
        except DegenerateSampleError:
            continue
        projected = pose.transform(points3d)
        if np.any(projected[:, 2] <= 0):
            continue
        reproj = projected[:, :2] / projected[:, 2:3]
        if np.abs(reproj - rays).max() > 1e-6:
            continue
        if any(
            np.abs(pose.rotation - prev.rotation).max() < 1e-9
            and np.abs(pose.translation - prev.translation).max() < 1e-9 * (1.0 + np.abs(prev.translation).max())
            for prev in poses
        ):
            continue
        poses.append(pose)
    return poses


@dataclass(frozen=True)
class RefineResult:
    pose: Pose
    initial_cost: float
    final_cost: float
    diverged: bool


def refine_pnp(initial: Pose, points3d: np.ndarray, pixels: np.ndarray, k: CameraIntrinsics) -> RefineResult:
    """Damped Gauss-Newton on pixel reprojection error.

    Damping starts at 1e-3 and follows the shared Levenberg-Marquardt
    schedule; convergence is a relative cost change below 1e-12.  The
    returned cost never exceeds the initial cost; if no step is ever
    accepted (an infeasible start included) the initial pose comes back with
    diverged=True.
    """
    points3d = np.asarray(points3d, dtype=float).reshape(-1, 3)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if len(points3d) < 4:
        raise InvalidParameterError("refinement needs at least 4 correspondences")

    def evaluate(pose: Pose):
        cam = pose.transform(points3d)
        if np.any(cam[:, 2] <= 0):
            return np.inf, None, None
        z = cam[:, 2]
        proj = np.column_stack([k.fx * cam[:, 0] / z + k.cx, k.fy * cam[:, 1] / z + k.cy])
        res = (proj - pixels).ravel()
        return float(res @ res), res, cam

    def jacobian(pose: Pose, res, cam: np.ndarray) -> np.ndarray:
        z = cam[:, 2]
        n = len(cam)
        d_proj = np.zeros((n, 2, 3))
        d_proj[:, 0, 0] = k.fx / z
        d_proj[:, 0, 2] = -k.fx * cam[:, 0] / z**2
        d_proj[:, 1, 1] = k.fy / z
        d_proj[:, 1, 2] = -k.fy * cam[:, 1] / z**2
        # camera point under left perturbation: d(cam)/dw = -[cam]x, d(cam)/dt = I
        cross = np.zeros((n, 3, 3))
        cross[:, 0, 1] = cam[:, 2]
        cross[:, 0, 2] = -cam[:, 1]
        cross[:, 1, 0] = -cam[:, 2]
        cross[:, 1, 2] = cam[:, 0]
        cross[:, 2, 0] = cam[:, 1]
        cross[:, 2, 1] = -cam[:, 0]
        jac = np.concatenate([np.einsum("nij,njk->nik", d_proj, cross), d_proj], axis=2)
        return jac.reshape(2 * n, 6)

    def update(pose: Pose, step: np.ndarray) -> Pose:
        dr = rotation_from_axis_angle(step[:3])
        return Pose(dr @ pose.rotation, dr @ pose.translation + step[3:])

    pose, initial_cost, cost, kept = _damped_least_squares(
        initial, evaluate, jacobian, update, 1e-3, 1e12, 1e-12, 100
    )
    # with no step kept, pose and cost are the initial ones
    return RefineResult(pose, initial_cost, cost, not kept and cost != 0.0)


# --------------------------------------------------------------------------
# Rigid 3D-3D alignment
# --------------------------------------------------------------------------


def procrustes_align(ref_points: np.ndarray, query_points: np.ndarray) -> Pose:
    """Least-squares rigid transform (no scale) with R @ ref + t = query.

    Centroid subtraction + SVD; the sign of the last singular vector is
    flipped when needed so the rotation is always proper.  Collinear or
    coincident point sets raise DegenerateSampleError.
    """
    ref_points = np.asarray(ref_points, dtype=float).reshape(-1, 3)
    query_points = np.asarray(query_points, dtype=float).reshape(-1, 3)
    if ref_points.shape != query_points.shape or len(ref_points) < 3:
        raise InvalidParameterError("alignment needs matching point sets of size >= 3")
    centroid_ref = ref_points.mean(axis=0)
    centroid_query = query_points.mean(axis=0)
    h = (ref_points - centroid_ref).T @ (query_points - centroid_query)
    u, s, vt = np.linalg.svd(h)
    if s[1] <= 1e-12 * max(s[0], 1e-300):
        raise DegenerateSampleError("point sets are collinear or coincident")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    translation = centroid_query - rotation @ centroid_ref
    return Pose(rotation, translation)
