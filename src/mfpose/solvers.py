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
from numpy.linalg import _umath_linalg

from . import robust
from .errors import (
    CheiralityError,
    DegenerateSampleError,
    InvalidParameterError,
)
from .geometry import ROTATION_TOL, CameraIntrinsics, Pose, rotation_defect, rotation_from_axis_angle, skew

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


def _scatter_rounds(table: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(columns, terms) rounds that add every term into its column in term order, each column once per round."""
    flat = table.ravel()
    rank = np.array([np.count_nonzero(flat[:t] == flat[t]) for t in range(len(flat))])
    return [(flat[rank == r], np.flatnonzero(rank == r)) for r in range(rank.max() + 1)]


_MON3 = _monomial_table()
_MON3_ROUNDS = _scatter_rounds(_MON3)
_LEVI = np.zeros((3, 3, 3))
for _i, _j, _k, _s in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1), (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)):
    _LEVI[_i, _j, _k] = _s


def _hom(xy: np.ndarray) -> np.ndarray:
    return np.column_stack([xy, np.ones(len(xy))])


def _constraint_matrices(basis: np.ndarray) -> np.ndarray:
    """(K, 10, 20) coefficients of det(E) = 0 and 2*E*E^T*E - tr(E*E^T)*E = 0.

    basis is the (K, 4, 3, 3) stack of null-space matrices; E = x*B0 + y*B1 +
    z*B2 + B3.  Rows are polynomials over the _MONOMIALS columns.  Each
    column sums its terms from zero in the one-sample order (np.add.at's),
    which a one-hot matmul would not.
    """
    k = len(basis)
    det = np.einsum("ijk,nai,nbj,nck->nabc", _LEVI, basis[:, :, 0, :], basis[:, :, 1, :], basis[:, :, 2, :])
    # E E^T E for every (a, b, c) triple, summed in the order that
    # np.einsum("naip,nbqp,ncqj->nabcij") sums in (for each q a running sum
    # over p from zero, added to the total) without its per-element overhead.
    # The window runs along the last axis, so the products stream through
    # memory; each E_a[i,p] E_b[q,p] is formed once and rounds as (x y) z.
    window_last = np.ascontiguousarray(np.moveaxis(basis, 0, -1))  # (a, i, p, K)
    pairs = window_last[:, None, :, None] * window_last[None, :, None, :]  # (a, b, i, q, p, K)
    eet_e = 0.0
    for q in range(3):
        right = window_last[None, None, :, None, q]  # E_c[q, j] at (a, b, c, i, j, K)
        part = 0.0
        for p in range(3):
            part = part + pairs[:, :, None, :, q, p, None] * right
        eet_e = part + eet_e
    tr_e = np.einsum("napq,nbpq,ncij->nabcij", basis, basis, basis)
    cubic = (2.0 * eet_e - np.moveaxis(tr_e, 0, -1)).reshape(64, 9, k)
    terms = np.concatenate([np.moveaxis(det.reshape(k, 64), 0, -1)[:, None], cubic], axis=1)  # (64, 10, K)
    coef = np.zeros((20, 10, k))
    for columns, index in _MON3_ROUNDS:
        coef[columns] += terms[index]
    return np.ascontiguousarray(np.moveaxis(coef, -1, 0).swapaxes(1, 2))


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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (P, n) stacks, bit-identical to a[i] @ b[i] (a BLAS dot).

    np.linalg.norm(axis=...), np.sum(a * b, axis=1) and einsum sum in other orders.
    """
    return (a[:, None, :] @ b[:, :, None]).reshape(-1)


def _norms(v: np.ndarray) -> np.ndarray:
    """Norms of the items of a (P, ...) stack, bit-identical to np.linalg.norm of each (a dot product)."""
    flat = v.reshape(len(v), int(np.prod(v.shape[1:])))
    return np.sqrt(_dots(flat, flat))


def essential_from_pose(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """E = [t]x R, of unit norm, for the relative pose mapping reference to query frame.

    Takes one pose or an (N, 3, 3), (N, 3) stack; each stacked matrix rounds
    as its one-pose call.
    """
    t = np.asarray(translation, dtype=float)
    if np.any(_norms(t.reshape(-1, 3)) == 0):
        raise InvalidParameterError("essential matrix undefined for zero translation")
    e = skew(t) @ np.asarray(rotation, dtype=float)
    return e / _norms(e.reshape(-1, 3, 3)).reshape(e.shape[:-2] + (1, 1))


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


def _z_polynomial(z_system: np.ndarray) -> np.ndarray:
    """Degree-10 determinant of one (3, 3, 5) z-system; all three cofactor products are degree 10."""
    (k1, k2, k3), (l1, l2, l3), (m1, m2, m3) = ((r[0, 1:], r[1, 1:], r[2]) for r in z_system)
    return (
        np.convolve(k1, np.convolve(l2, m3) - np.convolve(l3, m2))
        + np.convolve(k2, np.convolve(l3, m1) - np.convolve(l1, m3))
        + np.convolve(k3, np.convolve(l1, m2) - np.convolve(l2, m1))
    )


# the LAPACK least-squares loop inside np.linalg.lstsq, and its default rcond for 3x2 systems
try:
    _lstsq = _umath_linalg.lstsq
except AttributeError:  # numpy 1 names the m > n variant
    _lstsq = _umath_linalg.lstsq_n
_LSTSQ_RCOND = np.finfo(float).eps * 3


def _least_squares_xy(parts: np.ndarray) -> np.ndarray:
    """(P, 2) least-squares (x, y) of x X + y Y = -Z for each (3, 3) [X | Y | Z] of a (P, 3, 3) stack.

    One call of the LAPACK loop inside np.linalg.lstsq, with its default
    rcond, so each row rounds as np.linalg.lstsq(X, -Z) does; a system whose
    SVD does not converge gives NaN where np.linalg.lstsq raises.
    """
    with np.errstate(all="ignore"):
        return _lstsq(parts[:, :, :2], -parts[:, :, 2:], _LSTSQ_RCOND, signature="ddd->ddid")[0][:, :, 0]


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
    ones = np.ones((count, 5, 1))
    qr = np.concatenate([samples[:, :, :2], ones], axis=2)
    qq = np.concatenate([samples[:, :, 2:], ones], axis=2)
    design = (qq[:, :, :, None] * qr[:, :, None, :]).reshape(count, 5, 9)
    basis = np.linalg.svd(design)[2][:, -4:].reshape(count, 4, 3, 3)

    coef = _constraint_matrices(basis)
    reduced, _ = _solve_each(coef[:, :, :10], coef[:, :, 10:])  # Gauss-Jordan; NaN for a singular system
    # (K, 3, 3, 5): rows k, l, m of the z-system, each split into x, y and 1 parts
    z_system = np.stack([_z_rows(reduced[:, i], reduced[:, i + 1]) for i in (4, 6, 8)], axis=1)
    polys = np.zeros((count, 11))  # all-zero rows have no roots
    for i in np.flatnonzero(np.isfinite(reduced).all(axis=(1, 2))):
        poly = _z_polynomial(z_system[i])
        if np.all(np.isfinite(poly)):  # np.roots raises on inf and nan
            polys[i] = poly
    owner, z = _real_roots(polys, lambda roots: np.abs(roots.imag) <= 1e-10)

    # every (sample, real root) pair at once from here on
    z = _polish_roots(polys[owner], z)
    parts = _horner(np.moveaxis(z_system[owner], -1, 0), z[:, None, None])  # (P, 3, 3): x, y and 1 parts at z
    finite = np.isfinite(parts).all(axis=(1, 2))  # LAPACK is not handed inf or nan
    owner, z, parts = owner[finite], z[finite], parts[finite]
    xy = _least_squares_xy(parts)  # NaN at a root whose SVD does not converge: its norm is not finite below
    b = basis[owner]
    e = xy[:, 0, None, None] * b[:, 0] + xy[:, 1, None, None] * b[:, 1] + z[:, None, None] * b[:, 2] + b[:, 3]
    norm = _norms(e)
    keep = (norm != 0) & np.isfinite(norm)
    owner, e = owner[keep], e[keep] / norm[keep, None, None]

    # project onto the essential manifold: singular values (s, s, 0)
    u, s, vt = np.linalg.svd(e)
    sigma = np.zeros_like(e)
    sigma[:, 0, 0] = sigma[:, 1, 1] = 0.5 * (s[:, 0] + s[:, 1])
    e = u @ sigma @ vt
    e = e / _norms(e)[:, None, None]
    residual = np.abs(np.einsum("pni,pij,pnj->pn", qq[owner], e, qr[owner])).max(axis=1)
    fits = ~(residual > 1e-8)
    owner, e = owner[fits], e[fits]
    # a candidate repeats an earlier kept one of its sample when |<E, E'>| ~ 1;
    # row sums of the products round as np.sum of each product does
    j, k = np.nonzero((owner[:, None] == owner) & np.tri(len(owner), k=-1, dtype=bool))
    repeated = np.abs((e[j] * e[k]).reshape(-1, 9).sum(axis=1)) > 1.0 - 1e-9
    if repeated.any():  # rare: drop each candidate that repeats an earlier kept one
        repeats = np.zeros((len(owner), len(owner)), dtype=bool)
        repeats[j, k] = repeated
        kept: list[int] = []
        for candidate in range(len(owner)):
            if not repeats[candidate, kept].any():
                kept.append(candidate)
        owner, e = owner[kept], e[kept]
    bounds = np.searchsorted(owner, np.arange(count + 1))  # owner ascends
    return [list(e[start:stop]) for start, stop in zip(bounds[:-1], bounds[1:])]


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

    def build(params: np.ndarray) -> np.ndarray:
        """(N, 3, 3) essential matrices of an (N, 5) stack of pose parameters."""
        rot = rotation_from_axis_angle(params[:, :3]) @ rotation
        direction = rotation_from_axis_angle(b1 * params[:, 3:4] + b2 * params[:, 4:5]) @ t_dir
        return essential_from_pose(rot, direction)

    def evaluate(p: np.ndarray):
        res = robust.sampson_error(build(p[None])[0], matches)
        return float(np.sum(res**2)), res, None

    def jacobian(p: np.ndarray, res, state) -> np.ndarray:
        step_h = 1e-6
        diagonal = np.arange(5)
        perturbed = np.repeat(p[None], 10, axis=0)  # rows p + h e_j, p - h e_j for j = 0..4
        perturbed[0::2][diagonal, diagonal] += step_h
        perturbed[1::2][diagonal, diagonal] -= step_h
        # central differences: the O(h^2) error keeps the convergence
        # floor near 1e-12, which the noiseless exactness regime needs
        rows = robust.sampson_error(build(perturbed), matches)
        return np.ascontiguousarray(((rows[0::2] - rows[1::2]) / (2.0 * step_h)).T)

    params, *_ = _damped_least_squares(np.zeros(5), evaluate, jacobian, np.add, 1e-6, 1e8, 1e-10, 20)
    return build(params[None])[0]


# --------------------------------------------------------------------------
# Perspective-n-point
# --------------------------------------------------------------------------


def _p3p_quartics(n_poly, d_poly, r01, cos01, cos02) -> np.ndarray:
    """(P, 5) quartics in v of the ratio substitution, from (P, 3) N(v) and (P, 2) D(v).

    The products stay per sample with np.convolve, whose BLAS dots may round
    unlike elementwise arithmetic.
    """
    nn, nd, third = (np.empty((len(r01), width)) for width in (5, 4, 5))
    for i in range(len(r01)):
        nn[i] = np.convolve(n_poly[i], n_poly[i])
        nd[i] = np.convolve(n_poly[i], d_poly[i])
        r_poly = np.array([-r01[i], 2.0 * r01[i] * cos02[i], 1.0 - r01[i]])
        third[i] = np.convolve(r_poly, np.convolve(d_poly[i], d_poly[i]))
    padded = np.concatenate([np.zeros((len(r01), 1)), nd], axis=1)
    return nn - (2.0 * cos01)[:, None] * padded + third


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
    collinear or coincident sample yields an empty list.  Every stage runs
    per sample, or stacked in a form that rounds exactly as per sample, so a
    sample's poses do not depend on the other samples in the stack.
    """
    points3d = np.asarray(points3d, dtype=float)
    rays = np.asarray(rays, dtype=float)
    if points3d.ndim != 3 or points3d.shape[1:] != (3, 3) or rays.shape != (len(points3d), 3, 2):
        raise InvalidParameterError(
            f"P3P needs (K, 3, 3) points and (K, 3, 2) rays, got {points3d.shape} and {rays.shape}"
        )
    poses: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(len(points3d))]
    spread = np.abs(points3d - points3d.mean(axis=1, keepdims=True)).max(axis=(1, 2))
    area = _norms(np.cross(points3d[:, 1] - points3d[:, 0], points3d[:, 2] - points3d[:, 0]))
    d01 = _norms(points3d[:, 0] - points3d[:, 1])
    d02 = _norms(points3d[:, 0] - points3d[:, 2])
    d12 = _norms(points3d[:, 1] - points3d[:, 2])
    collinear = area <= 1e-12 * np.maximum(spread * spread, 1e-30)
    coincident = (d01 <= 0) | (d02 <= 0) | (d12 <= 0)
    good = np.flatnonzero(~(collinear | coincident))
    points3d, rays, d01, d02, d12 = points3d[good], rays[good], d01[good], d02[good], d12[good]

    f = np.concatenate([rays, np.ones((len(good), 3, 1))], axis=2)
    f /= np.linalg.norm(f, axis=2, keepdims=True)
    cos01, cos02, cos12 = _dots(f[:, 0], f[:, 1]), _dots(f[:, 0], f[:, 2]), _dots(f[:, 1], f[:, 2])
    # squared one NumPy scalar at a time: that rounds through C pow, array ** 2 as x * x
    r01 = np.array([ratio**2 for ratio in d01 / d02])
    r12 = np.array([ratio**2 for ratio in d12 / d02])
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
    for i in np.flatnonzero(fits):
        kept = poses[good[owner[i]]]
        if any(
            np.abs(rotation[i] - r).max() < 1e-9 and np.abs(translation[i] - t).max() < 1e-9 * (1.0 + np.abs(t).max())
            for r, t in kept
        ):
            continue
        kept.append((rotation[i], translation[i]))
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
