"""`pnp_p3p` against the form it replaced.

The reference below is the P3P solver that built its quartics with four
`_poly_mul` calls and an `np.pad` and gathered its Newton rows with
`flatnonzero` on every step, and the Kabsch alignment it called, kept here
verbatim as the oracle.  The shared helpers (`_real_roots`,
`_polish_roots`, `_horner`, `_solve_each`, `_unrepeated`) are looked up on
`mfpose.solvers` at call time, so a patched helper reaches both sides.
The rewrite must give bit-identical poses.
"""

from __future__ import annotations

import numpy as np

from mfpose import solvers
from mfpose.errors import InvalidParameterError
from mfpose.geometry import ROTATION_TOL, _cross, rotation_defect
from mfpose.solvers import pnp_p3p

from conftest import random_rotation


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    width = b.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (a.shape[-1] + width - 1,))
    for i in range(a.shape[-1]):
        out[..., i : i + width] += a[..., i, None] * b
    return out


def _p3p_quartics(n_poly, d_poly, r01, cos01, cos02) -> np.ndarray:
    r_poly = np.stack([-r01, 2.0 * r01 * cos02, 1.0 - r01], axis=1)
    padded = np.pad(_poly_mul(n_poly, d_poly), ((0, 0), (1, 0)))
    return _poly_mul(n_poly, n_poly) - (2.0 * cos01)[:, None] * padded + _poly_mul(r_poly, _poly_mul(d_poly, d_poly))


def _p3p_newton(dists, cos01, cos02, cos12, d01, d02, d12) -> np.ndarray:
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
        step, solved = solvers._solve_each(jac, g[:, :, None])
        live[index[~solved]] = False
        dists[index[solved]] -= step[solved, :, 0]
    return dists


def _kabsch(ref: np.ndarray, query: np.ndarray):
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


def reference_pnp_p3p(points3d: np.ndarray, rays: np.ndarray) -> list[list[tuple[np.ndarray, np.ndarray]]]:
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
    owner, v = solvers._real_roots(quartics, lambda z: np.abs(z.imag) <= 1e-8 * np.maximum(1.0, np.abs(z.real)))
    v = solvers._polish_roots(quartics[owner], v)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        qv = solvers._horner(q[owner].T, v)
        dd = solvers._horner(d_poly[owner].T, v)
        k0 = d02[owner] / np.sqrt(qv)
        dists = np.stack([k0, solvers._horner(n_poly[owner].T, v) / dd * k0, v * k0], axis=1)
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
    kept = solvers._unrepeated(j, k, repeated, len(owner))
    owner, rotation, translation = owner[kept], rotation[kept], translation[kept]
    for sample, r, t in zip(good[owner], rotation, translation):
        poses[sample].append((r, t))
    return poses


# ---------------------------------------------------------------------------
# P3P windows
# ---------------------------------------------------------------------------

KINDS = ("exact", "noisy", "random", "far")


def _window(rng, size: int, kind: str):
    """(size, 3, 3) world points and (size, 3, 2) rays of one kind, some samples made collinear or coincident."""
    rotations = np.array([random_rotation(rng) for _ in range(size)])
    translations = rng.normal(0.0, 2.0, (size, 3))
    cam = np.stack([rng.uniform(-2, 2, (size, 3)), rng.uniform(-1.5, 1.5, (size, 3)), rng.uniform(1, 9, (size, 3))],
                   axis=2)
    if kind == "far":  # points about 1e3 from the origin
        cam *= 1e3 / 9
        translations *= 1e3 / 2
    world = (cam - translations[:, None]) @ rotations  # R^T (x - t), row by row
    rays = cam[:, :, :2] / cam[:, :, 2:]
    if kind == "noisy":
        rays = rays + rng.normal(0.0, 1e-3, rays.shape)
    elif kind == "random":
        rays = rng.uniform(-1.5, 1.5, rays.shape)
    for i in np.flatnonzero(rng.random(size) < 0.1):
        if rng.random() < 0.5:  # the third point on the line of the first two
            world[i, 2] = world[i, 0] + rng.uniform(-2, 2) * (world[i, 1] - world[i, 0])
        else:  # two points coincide
            a, b = rng.choice(3, size=2, replace=False)
            world[i, a] = world[i, b]
    return world, rays


def _same(expected, actual) -> bool:
    return len(expected) == len(actual) and all(
        len(e) == len(a)
        and all(r.tobytes() == r2.tobytes() and t.tobytes() == t2.tobytes() for (r, t), (r2, t2) in zip(e, a))
        for e, a in zip(expected, actual)
    )


def _windows(seed: int, count: int):
    """`count` windows of 1 to 70 samples, log-uniform in size, the kinds in turn."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        kind = KINDS[index % len(KINDS)]
        yield kind, _window(rng, int(np.exp(rng.uniform(0.0, np.log(71.0)))), kind)


def test_p3p_is_bit_identical_to_the_reference_solver():
    poses = 0
    for seed in range(4):
        for kind, (world, rays) in _windows(seed, 500):
            expected = reference_pnp_p3p(world, rays)
            assert _same(expected, pnp_p3p(world, rays)), (seed, kind, len(world))
            poses += sum(map(len, expected))
    assert poses > 10000  # the comparison covers many roots


def test_p3p_with_every_root_doubled_is_bit_identical_to_the_reference_solver(monkeypatch):
    # each candidate then repeats its twin: the de-duplication runs on every window
    real_roots = solvers._real_roots

    def twice(polys, is_real):
        owner, roots = real_roots(polys, is_real)
        return np.repeat(owner, 2), np.repeat(roots, 2)

    monkeypatch.setattr(solvers, "_real_roots", twice)
    for kind, (world, rays) in _windows(7, 200):
        assert _same(reference_pnp_p3p(world, rays), pnp_p3p(world, rays)), (kind, len(world))


def test_p3p_quartics_are_bit_identical_to_the_poly_mul_form_with_signed_zeros():
    # a product that is -0.0 gives +0.0 once added to the 0.0 a _poly_mul sum starts from
    rng = np.random.default_rng(3)
    values = np.array([0.0, -0.0, 1.5, -2.25, 0.5])
    for _ in range(50):
        n_poly, d_poly = rng.choice(values, (40, 3)), rng.choice(values, (40, 2))
        r01, cos01, cos02 = rng.choice(values, 40), rng.choice(values, 40), rng.choice(values, 40)
        expected = _p3p_quartics(n_poly, d_poly, r01, cos01, cos02)
        assert solvers._p3p_quartics(n_poly, d_poly, r01, cos01, cos02).tobytes() == expected.tobytes()


def test_p3p_newton_singular_root_matches_the_reference_steps():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dists = rng.uniform(2.0, 6.0, (9, 3))
        cosines = rng.uniform(0.8, 0.99, (3, 9))
        lengths = rng.uniform(0.5, 2.0, (3, 9))
        for row in rng.choice(9, size=3, replace=False):  # first rows of their Jacobians zero
            dists[row, :2] = 1.0
            cosines[0, row] = 1.0
        expected = _p3p_newton(dists, *cosines, *lengths)
        assert solvers._p3p_newton(dists, *cosines, *lengths).tobytes() == expected.tobytes()
