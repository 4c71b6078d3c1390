"""The essmat query's kernels against the forms they replaced.

The references below are the Sampson score that built its rays, squares
and quotients in fresh arrays and fixed up undefined denominators with
`np.where`, the refinement that rebuilt its rays on every evaluation and
its tangent basis on every step, and the five-point solver whose tail built
its z-system with concatenations, multiplied its polynomials one
`_poly_mul` call at a time and found repeated candidates through a P x P
mask.  They are kept here verbatim as the oracle.  The shared helpers that
did not change (`_constraint_matrices`, `_solve_each`, `_real_roots`,
`_polish_roots`, `_horner`, `_least_squares_xy`, `_unrepeated`,
`decompose_essential`, `_damped_least_squares`, `_sampson_jacobian`,
`_tangent_basis`) are looked up on `mfpose.solvers` at call time, so a
patched helper reaches both sides.  The rewrite must give bit-identical
results and write none of its inputs.
"""

from __future__ import annotations

import warnings
from operator import itemgetter

import numpy as np

from mfpose import robust, solvers
from mfpose.errors import InvalidParameterError
from mfpose.geometry import _cross, rotation_from_axis_angle, skew
from mfpose.robust import sampson_error
from mfpose.solvers import essential_five_point, essential_from_pose, refine_essential

from conftest import random_rotation


def reference_sampson_error(e: np.ndarray, matches: np.ndarray) -> np.ndarray:
    m = np.asarray(matches, dtype=float)
    single = m.ndim == 1
    m = m.reshape(-1, 4)
    ones = np.ones(len(m))
    q_ref = np.stack([m[:, 0], m[:, 1], ones])  # (3, n) homogeneous rays
    q_query = np.stack([m[:, 2], m[:, 3], ones])
    e = np.asarray(e, dtype=float)
    stack = e.reshape(-1, 3, 3)
    # q_query^T E q_ref = vec(E) . (q_query kron q_ref)
    numerator = np.abs(stack.reshape(-1, 1, 9) @ (q_query[:, None] * q_ref).reshape(9, -1))[:, 0]
    eq = stack[:, :2] @ q_ref  # (E q_ref)[:2]
    etq = np.swapaxes(stack, 1, 2)[:, :2] @ q_query  # (E^T q_query)[:2]
    denom_sq = eq[:, 0] ** 2 + eq[:, 1] ** 2 + etq[:, 0] ** 2 + etq[:, 1] ** 2
    out = np.where(denom_sq > 0, numerator / np.sqrt(np.maximum(denom_sq, 1e-300)), np.where(numerator > 0, np.inf, 0.0))
    out = out.reshape(e.shape[:-2] + (len(m),))
    return float(out[0]) if single else out


def _perturb_relative_pose(pose, step: np.ndarray):
    rotation, t = pose
    return rotation_from_axis_angle(step[:3]) @ rotation, rotation_from_axis_angle(step[3:] @ solvers._tangent_basis(t)) @ t


def _relative_pose_directions(rotation: np.ndarray, t: np.ndarray) -> np.ndarray:
    turned = _cross(solvers._tangent_basis(t), t)
    return np.concatenate([skew(t) @ skew(np.eye(3)) @ rotation, skew(turned) @ rotation])


def reference_refine_essential(e: np.ndarray, matches: np.ndarray) -> np.ndarray:
    matches = np.asarray(matches, dtype=float).reshape(-1, 4)
    q_ref, q_query = solvers._hom(matches[:, :2]), solvers._hom(matches[:, 2:])

    def evaluate(pose):
        res = reference_sampson_error(essential_from_pose(*pose), matches)
        return float(np.sum(res**2)), res, None

    def jacobian(pose, res, state) -> np.ndarray:
        rotation, t = pose
        return solvers._sampson_jacobian(skew(t) @ rotation, _relative_pose_directions(rotation, t), q_ref, q_query)

    pose = solvers.decompose_essential(e, matches)
    pose, *_ = solvers._damped_least_squares(
        pose, evaluate, jacobian, _perturb_relative_pose, itemgetter(1), 1e-6, 1e8, 1e-10, 20, 1e-24
    )
    return essential_from_pose(*pose)


def _z_rows(row_i: np.ndarray, row_j: np.ndarray) -> np.ndarray:
    zero = np.zeros(row_i.shape[:-1] + (1,))
    px = np.concatenate([zero, row_i[..., 0:3]], axis=-1) - np.concatenate([row_j[..., 0:3], zero], axis=-1)
    py = np.concatenate([zero, row_i[..., 3:6]], axis=-1) - np.concatenate([row_j[..., 3:6], zero], axis=-1)
    p1 = np.concatenate([zero, row_i[..., 6:10]], axis=-1) - np.concatenate([row_j[..., 6:10], zero], axis=-1)
    return np.stack([np.concatenate([zero, px], axis=-1), np.concatenate([zero, py], axis=-1), p1], axis=-2)


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    width = b.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (a.shape[-1] + width - 1,))
    for i in range(a.shape[-1]):
        out[..., i : i + width] += a[..., i, None] * b
    return out


def _z_polynomials(z_system: np.ndarray) -> np.ndarray:
    k, l, m = z_system[:, 0], z_system[:, 1], z_system[:, 2]
    after, before = [1, 2, 0], [2, 0, 1]
    cofactors = _poly_mul(l[:, after], m[:, before]) - _poly_mul(l[:, before], m[:, after])
    terms = _poly_mul(k, cofactors)
    return (terms[:, 0] + terms[:, 1] + terms[:, 2])[:, 2:]


def _reference_z_system(reduced: np.ndarray) -> np.ndarray:
    return np.stack([_z_rows(reduced[:, i], reduced[:, i + 1]) for i in (4, 6, 8)], axis=1)


def reference_essential_five_point(samples: np.ndarray) -> list[list[np.ndarray]]:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3 or samples.shape[1:] != (5, 4):
        raise InvalidParameterError(f"five-point solver needs (K, 5, 4) samples, got {samples.shape}")
    count = len(samples)
    ones = np.ones((count, 5, 1))
    qr = np.concatenate([samples[:, :, :2], ones], axis=2)
    qq = np.concatenate([samples[:, :, 2:], ones], axis=2)
    design = (qq[:, :, :, None] * qr[:, :, None, :]).reshape(count, 5, 9)
    basis = np.linalg.svd(design)[2][:, -4:].reshape(count, 4, 3, 3)

    coef = solvers._constraint_matrices(basis)
    reduced, _ = solvers._solve_each(coef[:, :, :10], coef[:, :, 10:])  # Gauss-Jordan; NaN for a singular system
    # (K, 3, 3, 5): rows k, l, m of the z-system, each split into x, y and 1 parts
    z_system = np.stack([_z_rows(reduced[:, i], reduced[:, i + 1]) for i in (4, 6, 8)], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        polys = _z_polynomials(z_system)
    polys[~np.isfinite(polys).all(axis=1)] = 0.0  # all-zero rows have no roots; np.roots raises on inf and nan
    owner, z = solvers._real_roots(polys, lambda roots: np.abs(roots.imag) <= 1e-10)

    # every (sample, real root) pair at once from here on
    z = solvers._polish_roots(polys[owner], z)
    with np.errstate(over="ignore", invalid="ignore"):  # a root that overflows its parts is dropped next
        parts = solvers._horner(np.moveaxis(z_system[owner], -1, 0), z[:, None, None])  # (P, 3, 3): x, y and 1 parts at z
    finite = np.isfinite(parts).all(axis=(1, 2))
    owner, z, parts = owner[finite], z[finite], parts[finite]
    xy = solvers._least_squares_xy(parts)
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
    kept = solvers._unrepeated(j, k, repeated, len(owner))
    owner, e = owner[kept], e[kept]
    bounds = np.searchsorted(owner, np.arange(count + 1))  # owner ascends
    return [list(e[start:stop]) for start, stop in zip(bounds[:-1], bounds[1:])]


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------


def _two_view(rng, n: int, noise: float = 0.0, outliers: float = 0.0):
    """(n, 4) normalized matches of points 2-8 m in front of a reference camera, and the relative pose."""
    rotation = random_rotation(rng, 30.0)
    t = rng.normal(0.0, 1.0, 3)
    t *= rng.uniform(0.3, 1.2) / np.linalg.norm(t)
    points = np.column_stack([rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n), rng.uniform(2, 8, n)])
    cam = points @ rotation.T + t
    matches = np.column_stack([points[:, :2] / points[:, 2:], cam[:, :2] / cam[:, 2:]])
    matches += rng.normal(0.0, noise, matches.shape)
    bad = rng.random(n) < outliers
    matches[bad, 2:] = rng.uniform(-0.6, 0.6, (int(bad.sum()), 2))
    return matches, rotation, t


def _models(rng, count: int) -> np.ndarray:
    """(count, 3, 3) essential matrices of random poses, every fourth one a generic matrix."""
    rotations = np.array([random_rotation(rng) for _ in range(count)])
    e = essential_from_pose(rotations, rng.normal(0.0, 1.0, (count, 3)))
    generic = np.arange(count) % 4 == 3
    e[generic] = rng.normal(0.0, 1.0, (int(generic.sum()), 3, 3))
    return e


def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _same_warnings(call, *args):
    """(result, sorted warning messages) of call(*args), every floating-point warning recorded."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        result = call(*args)
    return result, sorted({str(w.message) for w in caught})


# ---------------------------------------------------------------------------
# Sampson score
# ---------------------------------------------------------------------------


def test_sampson_error_is_bit_identical_to_the_reference_on_seeded_stacks():
    rng = np.random.default_rng(11)
    shapes = [(1, 1), (600, 1), (1, 2000), (600, 2000), (64, 280), (10, 280)]
    while len(shapes) < 60:
        models, rows = int(np.exp(rng.uniform(0, np.log(601)))), int(np.exp(rng.uniform(0, np.log(2001))))
        if models * rows <= 300_000:
            shapes.append((models, rows))
    for models, rows in shapes:
        e = _models(rng, models)
        matches, *_ = _two_view(rng, rows, noise=1e-3, outliers=0.4)
        e, matches = _read_only(e, matches)
        expected = reference_sampson_error(e, matches)
        assert sampson_error(e, matches).tobytes() == expected.tobytes(), (models, rows)
        assert sampson_error(e[0], matches).tobytes() == expected[0].tobytes(), (models, rows)
        assert sampson_error(list(e[:3]), matches).tobytes() == expected[:3].tobytes(), (models, rows)


def test_sampson_error_of_one_match_is_the_reference_float():
    rng = np.random.default_rng(12)
    for _ in range(200):
        e = _models(rng, 1)[0]
        match = _two_view(rng, 1, noise=1e-2)[0][0]
        expected = reference_sampson_error(e, match)
        actual = sampson_error(e, match)
        assert type(actual) is float and np.float64(actual).tobytes() == np.float64(expected).tobytes()


def test_sampson_error_with_zero_denominators_is_the_reference():
    rng = np.random.default_rng(13)
    matches, *_ = _two_view(rng, 50, noise=1e-3)
    matches[:5] = 0.0  # at the epipoles of the first model: E q_ref and E^T q_query vanish
    matches[5:10, :2] = 0.0
    flat = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # [z]x, epipoles at the origin
    corner = np.diag([0.0, 0.0, 1.0])  # no first-order term anywhere: every nonzero residual is inf
    e = np.stack([flat, corner, np.zeros((3, 3)), -0.0 * flat, 1e-160 * flat, 1e-155 * _models(rng, 1)[0]])
    e, matches = _read_only(e, matches)
    expected, expected_warnings = _same_warnings(reference_sampson_error, e, matches)
    actual, actual_warnings = _same_warnings(sampson_error, e, matches)
    assert actual.tobytes() == expected.tobytes()
    assert actual_warnings == expected_warnings
    assert (expected[0, :5] == 0.0).all() and np.isinf(expected[1]).all() and (expected[2] == 0.0).all()


def test_sampson_error_with_inf_and_nan_entries_is_the_reference():
    rng = np.random.default_rng(14)
    # a zero or NaN denominator is read from the numerator: inf above zero, else 0.0.  A NaN denominator
    # under a finite numerator needs rays and Kronecker rows that disagree on a BLAS with fused multiply-adds
    q_ref = np.array([[np.nan, np.nan, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    q_query = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    kron = np.zeros((9, 4))
    kron[8] = 2.0, 0.0, 3.0, 0.0  # vec(I) . kron is rows 0 + 4 + 8
    rows = _read_only(q_ref, q_query, kron)
    assert robust._sampson_rows(np.eye(3)[None], rows).tolist() == [[np.inf, 0.0, np.inf, 0.0]]
    special = np.array([np.inf, -np.inf, np.nan, 1e200, -1e200, 0.0, -0.0])
    for _ in range(40):
        e = _models(rng, 8)
        matches, *_ = _two_view(rng, 60, noise=1e-3, outliers=0.3)
        for array in (e.reshape(-1), matches.reshape(-1)):
            spots = rng.choice(len(array), size=max(1, len(array) // 20), replace=False)
            array[spots] = rng.choice(special, size=len(spots))
        e, matches = _read_only(e, matches)
        expected, expected_warnings = _same_warnings(reference_sampson_error, e, matches)
        actual, actual_warnings = _same_warnings(sampson_error, e, matches)
        assert actual.tobytes() == expected.tobytes()
        assert actual_warnings == expected_warnings


def test_sampson_error_writes_neither_input():
    rng = np.random.default_rng(15)
    e, matches = _models(rng, 7), _two_view(rng, 90, noise=1e-3)[0]
    before = e.tobytes(), matches.tobytes()
    first = sampson_error(e, matches)
    second = sampson_error(e, matches)
    assert (e.tobytes(), matches.tobytes()) == before
    assert first is not second and not np.shares_memory(first, second)
    assert first.tobytes() == second.tobytes()
    rows = robust._epipolar_rows(matches)
    _read_only(*rows)
    kept = [row.tobytes() for row in rows]
    robust._sampson_rows(e, rows)
    assert [row.tobytes() for row in rows] == kept


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------


def test_refine_essential_is_bit_identical_to_the_reference():
    rng = np.random.default_rng(21)
    refined = 0
    for index in range(48):
        noise = (0.0, 1e-3, 3e-3)[index % 3]
        matches, rotation, t = _two_view(rng, int(rng.integers(8, 300)), noise=noise, outliers=0.05 * (index % 2))
        axis = rng.standard_normal(3)
        turn = rotation_from_axis_angle(axis / np.linalg.norm(axis) * np.radians(rng.uniform(0.1, 3.0)))
        start = essential_from_pose(turn @ rotation, t + rng.normal(0.0, 0.05, 3))
        start, matches = _read_only(start, matches)
        expected = reference_refine_essential(start, matches)
        actual = refine_essential(start, matches)
        assert actual.tobytes() == expected.tobytes(), index
        refined += not np.array_equal(actual, start)
    assert refined >= 40


# ---------------------------------------------------------------------------
# Five-point windows
# ---------------------------------------------------------------------------

KINDS = ("exact", "noisy", "random", "far", "degenerate")


def _window(rng, size: int, kind: str) -> np.ndarray:
    """(size, 5, 4) samples of one kind; a degenerate window mixes repeated, collinear and zero matches in."""
    samples = np.empty((size, 5, 4))
    for i in range(size):
        samples[i] = _two_view(rng, 5, noise=1e-3 if kind == "noisy" else 0.0)[0]
    if kind == "random":
        samples = rng.uniform(-0.6, 0.6, samples.shape)
    elif kind == "far":
        samples *= 1e3
    elif kind == "degenerate":
        for i in range(size):
            case = rng.integers(4)
            if case == 0:  # one match twice
                samples[i, 4] = samples[i, 0]
            elif case == 1:  # reference points on a line
                samples[i, :, 1] = 0.3 * samples[i, :, 0]
            elif case == 2:  # a zero sample
                samples[i] = 0.0
            else:  # no motion
                samples[i, :, 2:] = samples[i, :, :2]
    return samples


def _same(expected, actual) -> bool:
    return len(expected) == len(actual) and all(
        len(e) == len(a) and all(x.tobytes() == y.tobytes() for x, y in zip(e, a)) for e, a in zip(expected, actual)
    )


def _windows(seed: int, count: int):
    """`count` windows of 1 to 64 samples, log-uniform in size, the kinds in turn."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        kind = KINDS[index % len(KINDS)]
        yield kind, _window(rng, int(np.exp(rng.uniform(0.0, np.log(65.0)))), kind)


def test_five_point_is_bit_identical_to_the_reference_solver():
    models = 0
    for seed in range(4):
        for kind, samples in _windows(seed, 500):
            (samples,) = _read_only(samples)
            with np.errstate(all="ignore"):
                expected = reference_essential_five_point(samples)
                actual = essential_five_point(samples)
            assert _same(expected, actual), (seed, kind, len(samples))
            models += sum(map(len, expected))
    assert models > 20000  # the comparison covers many roots


def test_five_point_with_every_root_doubled_is_bit_identical_to_the_reference_solver(monkeypatch):
    # each candidate then repeats its twin: the de-duplication runs on every window
    real_roots = solvers._real_roots

    def twice(polys, is_real):
        owner, roots = real_roots(polys, is_real)
        return np.repeat(owner, 2), np.repeat(roots, 2)

    monkeypatch.setattr(solvers, "_real_roots", twice)
    for kind, samples in _windows(9, 150):
        with np.errstate(all="ignore"):
            assert _same(reference_essential_five_point(samples), essential_five_point(samples)), (kind, len(samples))


def _nan_free(array: np.ndarray) -> bytes:
    return np.where(np.isnan(array), 0.0, array).tobytes()


def test_z_system_and_polynomials_are_bit_identical_with_signed_zeros_and_non_finite_entries():
    rng = np.random.default_rng(31)
    values = np.array([0.0, -0.0, 1.5, -2.25, 0.5, np.inf, -np.inf, np.nan, 1e300, -1e-300])
    for trial in range(200):
        reduced = rng.choice(values[: 5 if trial % 2 else 10], size=(7, 10, 10))
        z_system, found = _same_warnings(solvers._z_system, reduced)
        expected, expected_warnings = _same_warnings(_reference_z_system, reduced)
        assert (z_system.tobytes(), found) == (expected.tobytes(), expected_warnings), trial
        # a NaN's sign bit follows numpy's loop for each broadcast; essential_five_point zeroes a row that holds a NaN
        expected, expected_warnings = _same_warnings(_z_polynomials, z_system)
        actual, actual_warnings = _same_warnings(solvers._z_polynomials, z_system)
        assert (_nan_free(actual), actual_warnings) == (_nan_free(expected), expected_warnings), trial
        assert np.array_equal(np.isnan(actual), np.isnan(expected)), trial


def test_earlier_pairs_are_the_mask_pairs_in_order():
    rng = np.random.default_rng(32)
    for _ in range(500):
        owner = np.sort(rng.integers(0, int(rng.integers(1, 40)), int(rng.integers(0, 300))))
        expected = np.nonzero((owner[:, None] == owner) & np.tri(len(owner), k=-1, dtype=bool))
        actual = solvers._earlier_pairs(owner)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(actual, expected))
