"""Minimal and refinement solvers for two-view and 2D/3D pose estimation.

All image measurements here are in normalized camera coordinates (pixel
minus principal point over focal) unless a function explicitly takes
intrinsics.  2D-2D matches are packed as (n, 4) arrays
[x_ref, y_ref, x_query, y_query]; the essential matrix satisfies
q_query^T E q_ref = 0 on homogeneous rays (x, y, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter

import numpy as np

from . import robust
from .errors import (
    CheiralityError,
    DegenerateSampleError,
    InvalidParameterError,
)
from .geometry import ROTATION_TOL, CameraIntrinsics, Pose, _cross, rotation_defect, rotation_from_axis_angle, skew

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


# (64, 20) one-hot map from a product term (a, b, c) of three linear
# combinations to its monomial column
_MON3 = np.eye(20)[_monomial_table().ravel()]


def _hom(xy: np.ndarray) -> np.ndarray:
    return np.column_stack([xy, np.ones(len(xy))])


def _constraint_matrices(basis: np.ndarray) -> np.ndarray:
    """(K, 10, 20) coefficients of det(E) = 0 and 2*E*E^T*E - tr(E*E^T)*E = 0.

    basis is the (K, 4, 3, 3) stack of null-space matrices; E = x*B0 + y*B1 +
    z*B2 + B3.  Rows are polynomials over the _MONOMIALS columns.  Every
    (a, b, c) triple of basis matrices gives one term of each row; the
    one-hot matmul adds the terms into their monomials.
    """
    k = len(basis)
    # det(B_a; B_b; B_c) of rows taken from the three matrices: B_a[0] . (B_b[1] x B_c[2])
    cross = _cross(basis[:, :, None, 1], basis[:, None, :, 2]).reshape(k, 1, 16, 3)  # (b, c) pairs
    det = (cross @ basis[:, :, 0, :, None]).reshape(k, 64)
    eet = basis[:, :, None] @ np.swapaxes(basis[:, None], -1, -2)  # B_a B_b^T at (K, a, b, 3, 3)
    trace = np.trace(eet, axis1=-2, axis2=-1)  # tr(B_a B_b^T)
    cubic = 2.0 * (eet[:, :, :, None] @ basis[:, None, None]) - trace[..., None, None, None] * basis[:, None, None]
    terms = np.concatenate([det[:, None], cubic.reshape(k, 64, 9).swapaxes(1, 2)], axis=1)  # (K, 10, 64)
    return terms @ _MON3


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


def _polish_roots(polys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Two Newton steps on every root x of its own row of polys at once.

    Companion-matrix roots are not always at 1e-12.  A root stops early at a
    vanishing derivative; each step rounds as Python-float Horner would.
    """
    deriv = polys[:, :-1] * np.arange(polys.shape[1] - 1, 0, -1)  # np.polyder, row by row
    live = np.ones(len(x), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # as with Python floats, inf and nan just flow
        for _ in range(2):
            dx = _horner(deriv.T, x)
            live &= ~(np.abs(dx) < 1e-30)  # a nan derivative does not stop the steps either
            x = np.where(live, x - _horner(polys.T, x) / np.where(live, dx, 1.0), x)
    return x


def essential_from_pose(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """E = [t]x R, of unit norm, for the relative pose mapping reference to query frame.

    Takes one pose or an (N, 3, 3), (N, 3) stack.
    """
    t = np.asarray(translation, dtype=float)
    if np.any(np.linalg.norm(t, axis=-1) == 0):
        raise InvalidParameterError("essential matrix undefined for zero translation")
    e = skew(t) @ np.asarray(rotation, dtype=float)
    return e / np.linalg.norm(e, axis=(-2, -1), keepdims=True)


def _solve_each(a: np.ndarray, b: np.ndarray):
    """np.linalg.solve over a (P, n, n) stack with (P, n, k) right-hand sides; (x, solved).

    One singular system makes the stacked solve raise, so the stack falls
    back to one solve per system: a singular one alone is unsolved (NaN in
    x) and the others keep their solutions.  b stays 3-D: numpy 2 reads a
    (P, n) b as one matrix, numpy 1 as P vectors.
    """
    try:
        return np.linalg.solve(a, b), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        solved = np.zeros(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
                solved[i] = True
            except np.linalg.LinAlgError:
                pass
        return x, solved


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of two stacks of polynomials along the last axis, highest degree first (np.convolve, stacked)."""
    width = b.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (a.shape[-1] + width - 1,))
    for i in range(a.shape[-1]):
        out[..., i : i + width] += a[..., i, None] * b
    return out


def _z_polynomials(z_system: np.ndarray) -> np.ndarray:
    """(K, 11) degree-10 determinants of a (K, 3, 3, 5) stack of z-systems, by cofactors along the first row.

    The x and y parts carry a leading zero, so the padded products carry two
    leading zeros that are dropped.
    """
    k, l, m = z_system[:, 0], z_system[:, 1], z_system[:, 2]
    after, before = [1, 2, 0], [2, 0, 1]
    cofactors = _poly_mul(l[:, after], m[:, before]) - _poly_mul(l[:, before], m[:, after])
    terms = _poly_mul(k, cofactors)
    return (terms[:, 0] + terms[:, 1] + terms[:, 2])[:, 2:]


def _least_squares_xy(parts: np.ndarray) -> np.ndarray:
    """(P, 2) least-squares (x, y) of x X + y Y = -Z for each (3, 3) [X | Y | Z] of a (P, 3, 3) stack.

    Cramer's rule on the normal equations, with each 2x2 determinant the
    dot product of two cross products (Binet-Cauchy), which spares the
    cancellation of |X|^2 |Y|^2 - (X.Y)^2.  A rank-deficient [X | Y], or one
    whose products overflow, gives inf or NaN without a warning.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x, y, z = parts[:, :, 0], parts[:, :, 1], parts[:, :, 2]
        normal = _cross(x, y)
        numerators = np.stack([_cross(z, y), _cross(x, z)], axis=1) @ normal[:, :, None]
        return -numerators[:, :, 0] / np.sum(normal * normal, axis=1)[:, None]


def _real_roots(polys: np.ndarray, is_real):
    """(owner row, root) of every root of the rows of polys that is_real accepts, as np.roots finds them.

    is_real maps complex roots to a mask.  np.roots is the eigenvalues of the
    companion matrix once leading and trailing zeros are stripped; rows with
    none to strip are solved as one stack, the rest one at a time.  All-zero
    rows, and rows np.roots cannot solve (inf or nan), have no roots.
    """
    degree = polys.shape[1] - 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = -polys[:, 1:] / polys[:, :1]
    generic = (polys[:, -1] != 0) & np.all(np.isfinite(top), axis=1)
    rows = np.flatnonzero(generic)
    companion = np.zeros((len(rows), degree, degree))
    companion[:, 0] = top[rows]
    companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1.0
    eigenvalues = np.linalg.eigvals(companion)
    row, column = np.nonzero(is_real(eigenvalues))  # row-major: each row's roots in eigvals order
    owner, roots = [rows[row]], [eigenvalues.real[row, column]]
    for i in np.flatnonzero(~generic & np.any(polys != 0, axis=1)):
        try:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # an overflow leaves inf, caught below
                candidates = np.roots(polys[i])
        except np.linalg.LinAlgError:  # an overflowing companion matrix
            continue
        real = candidates.real[is_real(candidates)]
        owner.append(np.full(len(real), i))
        roots.append(real)
    owner, roots = np.concatenate(owner), np.concatenate(roots)
    if len(owner) > len(row):  # merge the one-at-a-time rows in; a stable sort keeps each row's order
        order = np.argsort(owner, kind="stable")
        owner, roots = owner[order], roots[order]
    return owner, roots


def _unrepeated(j: np.ndarray, k: np.ndarray, repeated: np.ndarray, count: int):
    """Index of the candidates kept when each one that repeats an earlier kept one is dropped.

    `repeated` flags the pairs (j[i], k[i]), k < j, of `count` candidates that repeat each other.
    """
    if not repeated.any():  # the common case: keep all
        return slice(None)
    repeats = np.zeros((count, count), dtype=bool)
    repeats[j, k] = repeated
    kept: list[int] = []
    for candidate in range(count):
        if not repeats[candidate, kept].any():
            kept.append(candidate)
    return kept


def essential_five_point(samples: np.ndarray) -> list[list[np.ndarray]]:
    """Minimal five-point relative pose solver over a (K, 5, 4) stack of samples.

    Returns, per sample, every real essential matrix consistent with its five
    normalized matches (up to ten).  Each constraint system is Gauss-Jordan
    reduced and collapsed to a degree-10 polynomial in z whose roots come
    from the companion-matrix eigenvalues (np.roots); roots with |imag| >
    1e-10 are discarded.  A numerically degenerate sample yields an empty
    list.  Every stage is stacked arithmetic that handles each sample alone
    (elementwise, or one LAPACK or BLAS call per sample or root), so a
    sample's solutions do not depend on the other samples in the stack.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3 or samples.shape[1:] != (5, 4):
        raise InvalidParameterError(f"five-point solver needs (K, 5, 4) samples, got {samples.shape}")
    count = len(samples)
    ones = np.ones((count, 5, 1))
    qr = np.concatenate([samples[:, :, :2], ones], axis=2)
    qq = np.concatenate([samples[:, :, 2:], ones], axis=2)
    design = (qq[:, :, :, None] * qr[:, :, None, :]).reshape(count, 5, 9)
    basis = np.linalg.svd(design)[2][:, -4:].reshape(count, 4, 3, 3)

    coef = _constraint_matrices(basis)
    reduced, _ = _solve_each(coef[:, :, :10], coef[:, :, 10:])  # Gauss-Jordan; NaN for a singular system
    # (K, 3, 3, 5): rows k, l, m of the z-system, each split into x, y and 1 parts
    z_system = np.stack([_z_rows(reduced[:, i], reduced[:, i + 1]) for i in (4, 6, 8)], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        polys = _z_polynomials(z_system)
    polys[~np.isfinite(polys).all(axis=1)] = 0.0  # all-zero rows have no roots; np.roots raises on inf and nan
    owner, z = _real_roots(polys, lambda roots: np.abs(roots.imag) <= 1e-10)

    # every (sample, real root) pair at once from here on
    z = _polish_roots(polys[owner], z)
    with np.errstate(over="ignore", invalid="ignore"):  # a root that overflows its parts is dropped next
        parts = _horner(np.moveaxis(z_system[owner], -1, 0), z[:, None, None])  # (P, 3, 3): x, y and 1 parts at z
    finite = np.isfinite(parts).all(axis=(1, 2))
    owner, z, parts = owner[finite], z[finite], parts[finite]
    xy = _least_squares_xy(parts)
    solved = np.isfinite(xy).all(axis=1)  # a rank-deficient root system has no (x, y)
    owner, z, xy = owner[solved], z[solved], xy[solved]
    b = basis[owner]
    e = xy[:, 0, None, None] * b[:, 0] + xy[:, 1, None, None] * b[:, 1] + z[:, None, None] * b[:, 2] + b[:, 3]
    norm = np.linalg.norm(e, axis=(1, 2))
    keep = (norm != 0) & np.isfinite(norm)
    owner, e = owner[keep], e[keep] / norm[keep, None, None]

    # project onto the essential manifold: singular values (s, s, 0)
    u, s, vt = np.linalg.svd(e)
    sigma = np.zeros_like(e)
    sigma[:, 0, 0] = sigma[:, 1, 1] = 0.5 * (s[:, 0] + s[:, 1])
    e = u @ sigma @ vt
    e = e / np.linalg.norm(e, axis=(1, 2), keepdims=True)
    residual = np.abs(np.einsum("pni,pij,pnj->pn", qq[owner], e, qr[owner])).max(axis=1)
    fits = ~(residual > 1e-8)
    owner, e = owner[fits], e[fits]
    # a candidate repeats an earlier kept one of its sample when |<E, E'>| ~ 1
    j, k = np.nonzero((owner[:, None] == owner) & np.tri(len(owner), k=-1, dtype=bool))
    repeated = np.abs((e[j] * e[k]).reshape(-1, 9).sum(axis=1)) > 1.0 - 1e-9
    kept = _unrepeated(j, k, repeated, len(owner))
    owner, e = owner[kept], e[kept]
    bounds = np.searchsorted(owner, np.arange(count + 1))  # owner ascends
    return [list(e[start:stop]) for start, stop in zip(bounds[:-1], bounds[1:])]


def _midpoints(d_ref, a11, d_query, rotation, translation):
    """Midpoint triangulation in the reference frame, from (n, 3) rays.

    d_ref are the reference rays and a11 their squared norms; d_query are
    the query rays rotated into the reference frame (rows: R.T @ ray_query).
    Returns (points, well_conditioned).  Ill-conditioned rows (near-parallel
    rays or near-zero baseline) fall back to a point along the reference ray
    and are flagged False; such a point is only meant for cheirality sign
    checks.
    """
    center = -(rotation.T @ translation)
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

    One triangulation per rotation: negating t negates every midpoint and
    both depths exactly (rounding is sign-symmetric), so (R, -t) is judged
    on the negated depths of (R, t).  Only an exact zero can change sign,
    and a zero depth is never in front.
    """
    matches = np.asarray(matches, dtype=float).reshape(-1, 4)
    if len(matches) == 0:
        raise InvalidParameterError("cheirality needs at least one match")
    candidates = essential_pose_candidates(e)
    d_ref = _hom(matches[:, :2])
    a11 = np.sum(d_ref * d_ref, axis=1)
    rays = _hom(matches[:, 2:])

    best = None
    for rotation, translation in candidates[::2]:  # (R, t); (R, -t) follows it in `candidates`
        points, well = _midpoints(d_ref, a11, rays @ rotation, rotation, translation)
        z_ref = points[:, 2]
        z_query = points @ rotation[2] + translation[2]
        for depth_ref, depth_query, t in ((z_ref, z_query, translation), (-z_ref, -z_query, -translation)):
            front = well & (depth_ref > 0) & (depth_query > 0)
            count = int(front.sum())
            margin = float(np.minimum(depth_ref[front], depth_query[front]).mean()) if count else 0.0
            key = (count, margin)
            if best is None or key > best[0]:
                best = (key, rotation, t)

    if best[0][0] == 0:
        raise CheiralityError("no decomposition places a match in front of both cameras")
    _, rotation, translation = best
    return rotation, translation / np.linalg.norm(translation)


# A solved step at most this times (1 + |t|), t the current translation, is roundoff: the point is converged.
_STEP_TOLERANCE = 1e-12


def _damped_least_squares(
    x, evaluate, jacobian, update, translation, damping, damping_cap, tolerance, max_iterations, cost_floor=0.0
):
    """Levenberg-Marquardt loop of both refiners; returns (x, initial cost, cost, diverged).

    evaluate(x) -> (cost, residuals, state), the cost infinite for an infeasible
    x; jacobian(x, residuals, state) differentiates the residuals; update(x,
    step) applies the solution of (J^T J + damping I) step = -J^T r;
    translation(x) is the translation vector of x.  A step that does not
    raise the cost is kept, its residuals and state reused, and the damping
    divided by 10 (floor 1e-12); a rejected step or a singular system
    multiplies it by 10.  x is converged, and the loop stops, on a cost at
    or below `cost_floor`, on a solved step no longer than 1e-12 (1 + |t|)
    (Madsen, Nielsen & Tingleff 2004, section 3.2), or after a kept step
    whose relative drop is below `tolerance`.  It also stops on a cost that
    is not finite, or when no step with damping below `damping_cap` is
    kept.  diverged is True when no step was kept and x is not converged.
    """
    cost, residuals, state = evaluate(x)
    initial_cost, kept = cost, False
    for _ in range(max_iterations):
        if not cost_floor < cost < np.inf:
            return x, initial_cost, cost, not kept and not cost <= cost_floor
        jac = jacobian(x, residuals, state)
        gradient = jac.T @ residuals
        hessian = jac.T @ jac
        while damping < damping_cap:
            try:
                step = np.linalg.solve(hessian + damping * np.eye(len(gradient)), -gradient)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            if np.linalg.norm(step) <= _STEP_TOLERANCE * (1.0 + np.linalg.norm(translation(x))):
                return x, initial_cost, cost, False
            candidate = update(x, step)
            new_cost, new_residuals, new_state = evaluate(candidate)
            if new_cost <= cost:
                relative_drop = (cost - new_cost) / max(cost, 1e-300)
                x, cost, residuals, state = candidate, new_cost, new_residuals, new_state
                damping = max(damping / 10.0, 1e-12)
                kept = True
                if relative_drop < tolerance:
                    return x, initial_cost, cost, False
                break
            damping *= 10.0
        else:
            break  # no step below the damping cap was kept
    return x, initial_cost, cost, not kept


def _tangent_basis(t: np.ndarray) -> np.ndarray:
    """(2, 3) orthonormal directions perpendicular to the unit vector t."""
    axis = np.array([1.0, 0.0, 0.0]) if abs(t[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    b1 = _cross(t, axis)
    b1 /= np.linalg.norm(b1)
    return np.stack([b1, _cross(t, b1)])


def _perturb_relative_pose(pose, step: np.ndarray):
    """(R, t) after a left rotation by step[:3] and a turn of t by step[3:] along its tangent basis."""
    rotation, t = pose
    return rotation_from_axis_angle(step[:3]) @ rotation, rotation_from_axis_angle(step[3:] @ _tangent_basis(t)) @ t


def _relative_pose_directions(rotation: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(5, 3, 3) derivatives of [t]x R along the steps of _perturb_relative_pose at zero."""
    turned = _cross(_tangent_basis(t), t)
    return np.concatenate([skew(t) @ skew(np.eye(3)) @ rotation, skew(turned) @ rotation])


def _sampson_jacobian(e: np.ndarray, directions: np.ndarray, q_ref: np.ndarray, q_query: np.ndarray) -> np.ndarray:
    """(n, k) derivatives of the Sampson errors of E along a (k, 3, 3) stack of directions of E.

    q_ref and q_query are (n, 3) homogeneous rays.  The Sampson error is
    |a| / d, with a = q_query^T E q_ref and d^2 the sum of the squares of the
    first two entries of E q_ref and E^T q_query.  It is invariant to the
    scale of E, so E and its directions need only share one scale.  A match
    with d = 0 has a zero row.
    """
    eq, etq = q_ref @ e.T, q_query @ e
    deq, detq = q_ref @ np.swapaxes(directions, 1, 2), q_query @ directions
    a = np.sum(q_query * eq, axis=1)
    d_sq = eq[:, 0] ** 2 + eq[:, 1] ** 2 + etq[:, 0] ** 2 + etq[:, 1] ** 2
    da = np.sum(q_query * deq, axis=2)
    half_dd_sq = np.sum(eq[:, :2] * deq[:, :, :2], axis=2) + np.sum(etq[:, :2] * detq[:, :, :2], axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = np.sign(a) * (da - a * half_dd_sq / d_sq) / np.sqrt(d_sq)
    return np.where(d_sq > 0, jac, 0.0).T


def refine_essential(e: np.ndarray, matches: np.ndarray) -> np.ndarray:
    """Levenberg-Marquardt on the Sampson error over the essential manifold.

    Minimal-sample hypotheses fit five noisy points exactly but generalize
    poorly; this polishes the 5 pose degrees of freedom (rotation plus
    translation direction) against all supplied matches, with the analytic
    Jacobian at the current pose.  It stops once the cost reaches 1e-24
    (exact matches), once a solved step is no longer than 1e-12 (1 + |t|) =
    2e-12 (t is the unit translation direction), or after a step that
    lowers it by less than a relative 1e-10.  The result is an exact
    essential matrix by construction.
    Raises CheiralityError when the initial matrix cannot be decomposed
    against the matches.
    """
    matches = np.asarray(matches, dtype=float).reshape(-1, 4)
    q_ref, q_query = _hom(matches[:, :2]), _hom(matches[:, 2:])

    def evaluate(pose):
        res = robust.sampson_error(essential_from_pose(*pose), matches)
        return float(np.sum(res**2)), res, None

    def jacobian(pose, res, state) -> np.ndarray:
        rotation, t = pose
        return _sampson_jacobian(skew(t) @ rotation, _relative_pose_directions(rotation, t), q_ref, q_query)

    pose = decompose_essential(e, matches)
    pose, *_ = _damped_least_squares(
        pose, evaluate, jacobian, _perturb_relative_pose, itemgetter(1), 1e-6, 1e8, 1e-10, 20, 1e-24
    )
    return essential_from_pose(*pose)


# --------------------------------------------------------------------------
# Perspective-n-point
# --------------------------------------------------------------------------


def _p3p_quartics(n_poly, d_poly, r01, cos01, cos02) -> np.ndarray:
    """(P, 5) quartics in v of the ratio substitution, from (P, 3) N(v) and (P, 2) D(v)."""
    r_poly = np.stack([-r01, 2.0 * r01 * cos02, 1.0 - r01], axis=1)
    padded = np.pad(_poly_mul(n_poly, d_poly), ((0, 0), (1, 0)))
    return _poly_mul(n_poly, n_poly) - (2.0 * cos01)[:, None] * padded + _poly_mul(r_poly, _poly_mul(d_poly, d_poly))


def _p3p_newton(dists, cos01, cos02, cos12, d01, d02, d12) -> np.ndarray:
    """Three Newton steps on the (P, 3) camera distances of the law-of-cosines system.

    The quartic root alone can lose precision near double roots, the
    distance system does not.  A root whose Jacobian is singular takes no
    further steps.
    """
    dists = dists.copy()
    live = np.ones(len(dists), dtype=bool)
    for _ in range(3):
        index = np.flatnonzero(live)
        k0, k1, k2 = dists[index].T
        c01, c02, c12 = cos01[index], cos02[index], cos12[index]
        e01, e02, e12 = d01[index], d02[index], d12[index]
        g = np.stack(
            [
                k0 * k0 + k1 * k1 - 2 * k0 * k1 * c01 - e01 * e01,
                k0 * k0 + k2 * k2 - 2 * k0 * k2 * c02 - e02 * e02,
                k1 * k1 + k2 * k2 - 2 * k1 * k2 * c12 - e12 * e12,
            ],
            axis=1,
        )
        zero = np.zeros(len(index))
        jac = 2.0 * np.stack(
            [
                np.stack([k0 - k1 * c01, k1 - k0 * c01, zero], axis=1),
                np.stack([k0 - k2 * c02, zero, k2 - k0 * c02], axis=1),
                np.stack([zero, k1 - k2 * c12, k2 - k1 * c12], axis=1),
            ],
            axis=1,
        )
        step, solved = _solve_each(jac, g[:, :, None])
        live[index[~solved]] = False
        dists[index[solved]] -= step[solved, :, 0]
    return dists


def pnp_p3p(points3d: np.ndarray, rays: np.ndarray) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Three-point pose over a stack: (K, 3, 3) world points and (K, 3, 2) normalized rays -> K lists of poses.

    Solves the classic law-of-cosines distance system.  The ratio
    substitution reduces it to a quartic per sample whose real roots
    (|imag| <= 1e-8 max(1, |real|)) are Newton-polished; each admissible
    root takes three Newton steps on the distance equations and gives
    camera-frame points that are rigidly aligned (Kabsch) to the world
    points.  Candidates that fail to reproject the sample to 1e-6
    (normalized units) or repeat an earlier candidate are dropped.  Poses
    are (rotation, translation) pairs, each one that a Pose accepts.  A
    collinear or coincident sample yields an empty list.  Every stage is
    stacked arithmetic that handles each sample alone, so a sample's poses
    do not depend on the other samples in the stack.
    """
    points3d = np.asarray(points3d, dtype=float)
    rays = np.asarray(rays, dtype=float)
    if points3d.ndim != 3 or points3d.shape[1:] != (3, 3) or rays.shape != (len(points3d), 3, 2):
        raise InvalidParameterError(
            f"P3P needs (K, 3, 3) points and (K, 3, 2) rays, got {points3d.shape} and {rays.shape}"
        )
    poses: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(len(points3d))]
    with np.errstate(over="ignore", invalid="ignore"):  # points near the float limit overflow: inf flows on, as below
        spread = np.abs(points3d - points3d.mean(axis=1, keepdims=True)).max(axis=(1, 2))
        area = np.linalg.norm(_cross(points3d[:, 1] - points3d[:, 0], points3d[:, 2] - points3d[:, 0]), axis=1)
        d01, d02, d12 = np.linalg.norm(points3d[:, [0, 0, 1]] - points3d[:, [1, 2, 2]], axis=2).T
        collinear = area <= 1e-12 * np.maximum(spread * spread, 1e-30)
    coincident = (d01 <= 0) | (d02 <= 0) | (d12 <= 0)
    good = np.flatnonzero(~(collinear | coincident))
    points3d, rays, d01, d02, d12 = points3d[good], rays[good], d01[good], d02[good], d12[good]

    f = np.concatenate([rays, np.ones((len(good), 3, 1))], axis=2)
    f /= np.linalg.norm(f, axis=2, keepdims=True)
    cos01, cos02, cos12 = np.sum(f[:, [0, 0, 1]] * f[:, [1, 2, 2]], axis=2).T
    r01 = (d01 / d02) ** 2
    r12 = (d12 / d02) ** 2
    # q(v) = 1 + v^2 - 2 v cos02; u = N(v)/D(v) after eliminating u^2.
    ones = np.ones(len(good))
    q = np.stack([ones, -2.0 * cos02, ones], axis=1)
    n_poly = np.array([-1.0, 0.0, 1.0]) - (r01 - r12)[:, None] * q
    d_poly = np.stack([-2.0 * cos12, 2.0 * cos01], axis=1)
    quartics = _p3p_quartics(n_poly, d_poly, r01, cos01, cos02)

    # every (sample, real root) pair at once from here on
    owner, v = _real_roots(quartics, lambda z: np.abs(z.imag) <= 1e-8 * np.maximum(1.0, np.abs(z.real)))
    v = _polish_roots(quartics[owner], v)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        qv = _horner(q[owner].T, v)
        dd = _horner(d_poly[owner].T, v)
        k0 = d02[owner] / np.sqrt(qv)
        dists = np.stack([k0, _horner(n_poly[owner].T, v) / dd * k0, v * k0], axis=1)
        admissible = ~(qv <= 0) & ~(np.abs(dd) < 1e-12) & ~np.any(dists <= 0, axis=1)
        owner, dists = owner[admissible], dists[admissible]
        dists = _p3p_newton(dists, cos01[owner], cos02[owner], cos12[owner], d01[owner], d02[owner], d12[owner])
    fine = np.all(np.isfinite(dists), axis=1) & np.all(dists > 0, axis=1)
    owner, dists = owner[fine], dists[fine]

    world = points3d[owner]
    rotation, translation, aligned = _kabsch(world, dists[:, :, None] * f[owner])
    projected = world @ np.swapaxes(rotation, 1, 2) + translation[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        error = np.abs(projected[:, :, :2] / projected[:, :, 2:3] - rays[owner]).max(axis=(1, 2))
    fits = aligned & ~np.any(projected[:, :, 2] <= 0, axis=1) & ~(error > 1e-6)
    owner, rotation, translation = owner[fits], rotation[fits], translation[fits]
    # a candidate repeats an earlier kept one (r, t) of its sample when it is within 1e-9 of r and 1e-9 (1 + |t|) of t
    j, k = np.nonzero((owner[:, None] == owner) & np.tri(len(owner), k=-1, dtype=bool))
    repeated = (np.abs(rotation[j] - rotation[k]).max(axis=(1, 2)) < 1e-9) & (
        np.abs(translation[j] - translation[k]).max(axis=1) < 1e-9 * (1.0 + np.abs(translation[k]).max(axis=1))
    )
    kept = _unrepeated(j, k, repeated, len(owner))
    owner, rotation, translation = owner[kept], rotation[kept], translation[kept]
    for sample, r, t in zip(good[owner], rotation, translation):
        poses[sample].append((r, t))
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
    schedule; convergence is a solved step no longer than 1e-12 (1 + |t|),
    t the current translation, or a kept step whose relative cost change is
    below 1e-12.  The returned cost never exceeds the initial cost.  If no
    step is ever accepted, the initial pose comes back, with diverged=True
    unless it is already converged (a zero cost or a negligible step); an
    infeasible start diverges.
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
        jac = np.concatenate([np.einsum("nij,njk->nik", d_proj, skew(-cam)), d_proj], axis=2)
        return jac.reshape(2 * n, 6)

    def update(pose: Pose, step: np.ndarray) -> Pose:
        dr = rotation_from_axis_angle(step[:3])
        return Pose(dr @ pose.rotation, dr @ pose.translation + step[3:])

    return RefineResult(
        *_damped_least_squares(initial, evaluate, jacobian, update, attrgetter("translation"), 1e-3, 1e12, 1e-12, 100)
    )


# --------------------------------------------------------------------------
# Rigid 3D-3D alignment
# --------------------------------------------------------------------------


def _kabsch(ref: np.ndarray, query: np.ndarray):
    """Least-squares rigid transforms with R @ ref + t = query over a (K, m, 3) stack of point-set pairs.

    Returns (rotation (K, 3, 3), translation (K, 3), ok (K,)).  Centroid
    subtraction + SVD; the sign of the last singular vector is flipped when
    needed so every rotation is proper.  ok is False for a collinear,
    coincident or non-finite pair, whose transform means nothing, and for a
    transform that Pose would reject (a rotation defect above ROTATION_TOL,
    a non-finite translation).  Every stage is a stacked form that rounds as
    the one-pair computation does.
    """
    centroid_ref = ref.mean(axis=1)
    centroid_query = query.mean(axis=1)
    h = np.swapaxes(ref - centroid_ref[:, None], 1, 2) @ (query - centroid_query[:, None])
    finite = np.isfinite(h).all(axis=(1, 2))
    u, s, vt = np.linalg.svd(np.where(finite[:, None, None], h, 0.0))  # the SVD raises on inf and nan
    ok = finite & ~(s[:, 1] <= 1e-12 * np.maximum(s[:, 0], 1e-300))
    v, ut = np.swapaxes(vt, 1, 2), np.swapaxes(u, 1, 2)
    flip = np.zeros_like(h)
    flip[:, 0, 0] = flip[:, 1, 1] = 1.0
    flip[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    rotation = v @ flip @ ut
    translation = centroid_query - (rotation @ centroid_ref[:, :, None])[:, :, 0]
    ok &= (rotation_defect(rotation) <= ROTATION_TOL) & np.isfinite(translation).all(axis=1)
    return rotation, translation, ok


def procrustes_align(ref_points: np.ndarray, query_points: np.ndarray) -> Pose:
    """Least-squares rigid transform (no scale) with R @ ref + t = query.

    The one-pair form of the stacked Kabsch alignment that the P3P solver
    and the procrustes estimator's robust loop use, so all three round
    alike.  The rotation is always proper.  Collinear, coincident or
    non-finite point sets, and a transform that Pose would reject, raise
    DegenerateSampleError.
    """
    ref_points = np.asarray(ref_points, dtype=float).reshape(-1, 3)
    query_points = np.asarray(query_points, dtype=float).reshape(-1, 3)
    if ref_points.shape != query_points.shape or len(ref_points) < 3:
        raise InvalidParameterError("alignment needs matching point sets of size >= 3")
    rotation, translation, ok = _kabsch(ref_points[None], query_points[None])
    if not ok[0]:
        raise DegenerateSampleError("point sets are collinear, coincident or not finite")
    return Pose(rotation[0], translation[0])
