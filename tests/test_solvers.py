import warnings

import numpy as np
import pytest

from mfpose import solvers
from mfpose.dataset import SyntheticSceneConfig, synth_scene
from mfpose.errors import CheiralityError, DegenerateSampleError, InvalidParameterError
from mfpose.geometry import (
    CameraIntrinsics,
    Pose,
    backproject,
    normalized_coords,
    rotation_error_deg,
    rotation_from_axis_angle,
    skew,
)
from mfpose.pipelines import EstimateStatus, EstimatorConfig, run_estimator
from mfpose.robust import sampson_error
from mfpose.solvers import (
    decompose_essential,
    essential_five_point,
    essential_from_pose,
    essential_pose_candidates,
    pnp_p3p,
    procrustes_align,
    refine_essential,
    refine_pnp,
)

from conftest import axis_rotation, random_pose, random_rotation, small_angle_deg

K = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480)


def triangulate_midpoints(rotation, translation, matches):
    """The solver's midpoint triangulation of (n, 4) normalized matches: (points, well_conditioned)."""
    rotation, translation = np.asarray(rotation, dtype=float), np.asarray(translation, dtype=float)
    matches = np.asarray(matches, dtype=float).reshape(-1, 4)
    d_ref = solvers._hom(matches[:, :2])
    d_query = solvers._hom(matches[:, 2:]) @ rotation
    return solvers._midpoints(d_ref, np.sum(d_ref * d_ref, axis=1), d_query, rotation, translation)


def make_two_view(rng, n=20, max_angle=30.0, translation=None, depth=(3.0, 8.0)):
    """Synthetic calibrated pair: true (R, t) and exact normalized matches."""
    rotation = random_rotation(rng, max_angle)
    if translation is None:
        translation = rng.standard_normal(3)
        translation /= np.linalg.norm(translation)
    translation = np.asarray(translation, dtype=float)
    points = np.column_stack(
        [rng.uniform(-1.5, 1.5, n), rng.uniform(-1.0, 1.0, n), rng.uniform(*depth, n)]
    )
    in_query = points @ rotation.T + translation
    keep = in_query[:, 2] > 0.1
    points, in_query = points[keep], in_query[keep]
    matches = np.column_stack(
        [
            points[:, 0] / points[:, 2],
            points[:, 1] / points[:, 2],
            in_query[:, 0] / in_query[:, 2],
            in_query[:, 1] / in_query[:, 2],
        ]
    )
    return rotation, translation, points, matches


# ---------------------------------------------------------------------------
# five-point solver
# ---------------------------------------------------------------------------


def test_five_point_recovers_synthetic_pose(rng):
    for _ in range(20):
        rotation, translation, _, matches = make_two_view(rng)
        if len(matches) < 5:
            continue
        solutions = essential_five_point(matches[None, :5])[0]
        assert solutions, "no solution on a clean sample"
        truth = essential_from_pose(rotation, translation)
        residuals = [sampson_error(e, matches[:5]).max() for e in solutions]
        assert min(residuals) < 1e-10
        gap = min(min(np.abs(e - truth).max(), np.abs(e + truth).max()) for e in solutions)
        assert gap < 1e-6


def test_five_point_solutions_satisfy_invariants(rng):
    rotation, translation, _, matches = make_two_view(rng)
    for e in essential_five_point(matches[None, :5])[0]:
        s = np.linalg.svd(e, compute_uv=False)
        assert s[2] < 1e-6 * s[0]
        assert (s[0] - s[1]) / s[0] < 1e-6
        # epipolar constraint on the sample
        q_ref = np.column_stack([matches[:5, :2], np.ones(5)])
        q_query = np.column_stack([matches[:5, 2:], np.ones(5)])
        assert np.abs(np.einsum("ni,ij,nj->n", q_query, e, q_ref)).max() < 1e-8


def test_five_point_repeated_match(rng):
    _, _, _, matches = make_two_view(rng)
    sample = matches[:5].copy()
    sample[4] = sample[0]
    solutions = essential_five_point(sample[None])[0]
    # degenerate sample: either nothing, or matrices still on the constraint
    for e in solutions:
        q_ref = np.column_stack([sample[:, :2], np.ones(5)])
        q_query = np.column_stack([sample[:, 2:], np.ones(5)])
        assert np.abs(np.einsum("ni,ij,nj->n", q_query, e, q_ref)).max() < 1e-8


def test_five_point_pure_rotation_sample(rng):
    # t = 0: epipolar geometry is undefined, but the solver may still return
    # interpolating matrices; degeneracy is flagged downstream (cheirality).
    rotation = random_rotation(rng, 20.0)
    points = np.column_stack([rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5), rng.uniform(3, 8, 5)])
    in_query = points @ rotation.T
    matches = np.column_stack(
        [points[:, :2] / points[:, 2:3], in_query[:, :2] / in_query[:, 2:3]]
    )
    solutions = essential_five_point(matches[None])[0]
    for e in solutions:
        q_ref = np.column_stack([matches[:, :2], np.ones(5)])
        q_query = np.column_stack([matches[:, 2:], np.ones(5)])
        assert np.abs(np.einsum("ni,ij,nj->n", q_query, e, q_ref)).max() < 1e-8


def test_five_point_input_shape():
    with pytest.raises(InvalidParameterError):
        essential_five_point(np.zeros((4, 4)))
    with pytest.raises(InvalidParameterError):
        essential_five_point(np.zeros((5, 4)))  # one sample is a stack of one
    with pytest.raises(InvalidParameterError):
        essential_five_point(np.zeros((2, 4, 4)))
    assert essential_five_point(np.zeros((0, 5, 4))) == []


def _real_five_point_samples(count=320):
    """Five-match samples drawn from 1 px-noise, 40%-outlier synthetic queries."""
    draw = np.random.default_rng(8)
    samples = []
    seed = 0
    while len(samples) < count:
        scene = synth_scene(SyntheticSceneConfig(rng_seed=seed, pixel_noise_px=1.0, outlier_fraction=0.4))
        k = scene.intrinsics
        for query in scene.queries:
            c = query.correspondences
            data = np.column_stack([normalized_coords(k, c.ref_px), normalized_coords(k, c.query_px)])
            samples += [data[draw.choice(len(data), size=5, replace=False)] for _ in range(40)]
        seed += 1
    return np.array(samples[:count])


def _same_bits(a, b):
    return len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_five_point_stack_matches_one_sample_calls_bit_for_bit():
    samples = _real_five_point_samples()
    assert len(samples) >= 300
    alone = [essential_five_point(sample[None])[0] for sample in samples]
    assert sum(map(len, alone)) > len(samples)  # the comparison covers many roots
    for window in (1, 5, 16):
        stacked = []
        for start in range(0, len(samples), window):
            stacked += essential_five_point(samples[start : start + window])
        assert len(stacked) == len(samples)
        for i, (a, b) in enumerate(zip(alone, stacked)):
            assert _same_bits(a, b), (window, i)


def test_five_point_singular_sample_leaves_its_window_intact():
    samples = _real_five_point_samples(15)
    singular = np.zeros((5, 4))  # five copies of one match at the principal point
    assert essential_five_point(singular[None]) == [[]]
    mixed = np.concatenate([samples[:7], singular[None], samples[7:]])
    solutions = essential_five_point(mixed)
    assert solutions[7] == []
    alone = [essential_five_point(sample[None])[0] for sample in samples]
    assert sum(map(len, alone)) > 0
    for a, b in zip(alone, solutions[:7] + solutions[8:]):
        assert _same_bits(a, b)


def _polished_real_roots(poly, is_real):
    """np.roots plus two Newton steps per accepted root, one Python float at a time: the stacked stages' reference."""
    deriv = np.polyder(poly)
    roots = []
    for root in np.roots(poly):
        if not is_real(root):
            continue
        x = float(root.real)
        for _ in range(2):
            dx = solvers._horner(deriv, x)
            if abs(dx) < 1e-30:
                break
            x -= solvers._horner(poly, x) / dx
        roots.append(x)
    return roots


def _constraint_rows_at(basis, point):
    """det(E) and the nine entries of 2 E E^T E - tr(E E^T) E at E = x B0 + y B1 + z B2 + B3, directly."""
    e = np.tensordot(np.append(point, 1.0), basis, axes=1)
    cubic = 2.0 * e @ e.T @ e - np.trace(e @ e.T) * e
    return np.concatenate([[np.linalg.det(e)], cubic.ravel()])


def _monomials_at(point):
    x, y, z = point
    return np.array([x**i * y**j * z**k for i, j, k in solvers._MONOMIALS])


def test_five_point_stacked_stages_round_as_their_one_sample_forms():
    samples = _real_five_point_samples(64)
    rays = np.concatenate([samples, np.ones((64, 5, 1))], axis=2)
    design = (rays[:, :, [2, 3, 4], None] * rays[:, :, None, [0, 1, 4]]).reshape(64, 5, 9)
    basis = np.linalg.svd(design)[2][:, -4:].reshape(64, 4, 3, 3)
    stacked = solvers._constraint_matrices(basis)
    rng = np.random.default_rng(3)
    for i, (b, coef) in enumerate(zip(basis, stacked)):
        assert coef.tobytes() == solvers._constraint_matrices(basis[i : i + 1])[0].tobytes()
        point = rng.uniform(-2.0, 2.0, 3)  # the rows are the constraint polynomials
        assert np.allclose(coef @ _monomials_at(point), _constraint_rows_at(b, point), rtol=0, atol=1e-12)

    # z-polynomials: stacked products, checked against np.convolve cofactors
    z_system = rng.normal(size=(40, 3, 3, 5))
    z_system[:, :, :2, 0] = 0.0  # the x and y parts are cubic
    polys = solvers._z_polynomials(z_system)
    for i, system in enumerate(z_system):
        assert polys[i].tobytes() == solvers._z_polynomials(system[None])[0].tobytes()
        (k1, k2, k3), (l1, l2, l3), (m1, m2, m3) = ((r[0, 1:], r[1, 1:], r[2]) for r in system)
        expected = (
            np.convolve(k1, np.convolve(l2, m3) - np.convolve(l3, m2))
            + np.convolve(k2, np.convolve(l3, m1) - np.convolve(l1, m3))
            + np.convolve(k3, np.convolve(l1, m2) - np.convolve(l2, m1))
        )
        assert np.allclose(polys[i], expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    polys = rng.normal(size=(40, 11))
    polys[0, 0] = polys[1, -1] = 0.0  # leading and trailing zeros take np.roots itself
    owner, roots = solvers._real_roots(polys, lambda roots: np.abs(roots.imag) <= 1e-10)
    polished = solvers._polish_roots(polys[owner], roots)
    for i, poly in enumerate(polys):
        expected = _polished_real_roots(poly, lambda root: abs(root.imag) <= 1e-10)
        assert np.array(expected).tobytes() == polished[owner == i].tobytes()


def test_five_point_non_finite_root_system_yields_no_model():
    # five matches sharing the principal point as reference: for most of these
    # the z-system is inf/nan at some polished root; such a root is skipped
    samples = [
        np.column_stack([np.zeros((5, 2)), np.random.default_rng(seed).uniform(-0.5, 0.5, (5, 2))])
        for seed in range(10)
    ]
    with np.errstate(all="ignore"):
        for solutions in essential_five_point(np.array(samples)):
            assert all(np.all(np.isfinite(e)) for e in solutions)


def test_root_least_squares_agree_with_np_linalg_lstsq(monkeypatch):
    captured = []  # the root systems of real windows, as the solver hands them over
    solve = solvers._least_squares_xy
    monkeypatch.setattr(solvers, "_least_squares_xy", lambda parts: captured.append(parts) or solve(parts))
    samples = _real_five_point_samples(320)
    for start in range(0, len(samples), 16):
        essential_five_point(samples[start : start + 16])
    real = np.concatenate(captured)
    assert len(real) > 1000
    # well-conditioned planted systems, and consistent ones as at an exact root
    rng = np.random.default_rng(5)
    planted = rng.normal(size=(400, 3, 3)) * 10.0 ** rng.uniform(-6, 6, (400, 1, 1))
    planted[200:, :, 2] = -(planted[200:, :, :2] @ rng.normal(size=(200, 2, 1)))[:, :, 0]
    for parts in (real, planted):
        xy = solve(parts)
        expected = np.array([np.linalg.lstsq(p[:, :2], -p[:, 2], rcond=None)[0] for p in parts])
        scale = np.abs(expected).max(axis=1, keepdims=True)
        assert np.all(np.abs(xy - expected) <= 1e-9 * scale + 1e-12)
        for i in range(0, len(parts), 7):
            assert xy[i].tobytes() == solve(parts[i : i + 1])[0].tobytes()
    # rank-deficient [X | Y]: no solution, and no warning
    singular = planted[:4].copy()
    singular[0, :, 1] = 2.0 * singular[0, :, 0]
    singular[1, :, 1] = 0.0
    singular[2, :, :2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xy = solve(singular)
    assert not np.isfinite(xy[:3]).all(axis=1).any()
    assert np.isfinite(xy[3]).all()
    assert solve(np.empty((0, 3, 3))).shape == (0, 2)


def test_five_point_nan_root_leaves_its_window_intact(monkeypatch):
    # a rank-deficient root system comes back inf or NaN from the stacked
    # least squares; only that root is lost, with no error and no warning
    samples = _real_five_point_samples(6)
    baseline = essential_five_point(samples)
    solve = solvers._least_squares_xy
    roots = []
    monkeypatch.setattr(solvers, "_least_squares_xy", lambda parts: roots.append(len(parts)) or solve(parts))
    essential_five_point(samples)
    lost = 0
    for target in range(roots[0]):

        def failing(parts):
            xy = solve(parts)
            xy[target] = np.nan
            return xy

        monkeypatch.setattr(solvers, "_least_squares_xy", failing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solutions = essential_five_point(samples)
        changed = [i for i, (a, b) in enumerate(zip(baseline, solutions)) if not _same_bits(a, b)]
        assert len(changed) <= 1, target
        for i in changed:  # the sample that owned the root lost it and kept the rest
            assert len(solutions[i]) == len(baseline[i]) - 1
            assert {e.tobytes() for e in solutions[i]} <= {e.tobytes() for e in baseline[i]}
            lost += 1
    assert lost > 0


def test_real_roots_merge_one_at_a_time_rows_in_row_order():
    rng = np.random.default_rng(6)
    polys = rng.normal(size=(14, 11))
    polys[1, 0] = 0.0  # leading zero
    polys[4, -2:] = 0.0  # trailing zeros: roots at zero
    polys[7] = 0.0  # no roots at all
    polys[9, :2] = polys[9, -1] = 0.0
    polys[11, 3] = np.nan  # np.roots cannot solve it: no roots
    predicates = (
        lambda roots: np.abs(roots.imag) <= 1e-10,  # five-point
        lambda z: np.abs(z.imag) <= 1e-8 * np.maximum(1.0, np.abs(z.real)),  # P3P
    )
    for is_real in predicates:
        owner, roots = solvers._real_roots(polys, is_real)
        expected_owner, expected_roots = [], []
        for i, poly in enumerate(polys):
            try:
                candidates = np.roots(poly)
            except np.linalg.LinAlgError:
                continue
            real = candidates.real[is_real(candidates)]
            expected_owner += [i] * len(real)
            expected_roots += real.tolist()
        assert {1, 4, 9} <= set(expected_owner) and len(set(expected_owner)) > 6
        assert owner.tolist() == expected_owner
        assert roots.tobytes() == np.array(expected_roots).tobytes()


def test_five_point_repeated_root_is_kept_once(monkeypatch):
    # every real root planted twice: each candidate repeats the one before it,
    # so the repeat check's slow path runs and must give the plain solutions
    samples = _real_five_point_samples(16)
    baseline = essential_five_point(samples)
    assert sum(map(len, baseline)) > len(samples)
    real_roots = solvers._real_roots

    def doubled(polys, is_real):
        owner, roots = real_roots(polys, is_real)
        return np.repeat(owner, 2), np.repeat(roots, 2)

    monkeypatch.setattr(solvers, "_real_roots", doubled)
    solutions = essential_five_point(samples)
    assert len(solutions) == len(baseline)
    for a, b in zip(baseline, solutions):
        assert _same_bits(a, b)


# ---------------------------------------------------------------------------
# decomposition + cheirality
# ---------------------------------------------------------------------------


def test_decompose_recovers_exact_pose(rng):
    for _ in range(50):
        rotation, translation, _, matches = make_two_view(rng, n=12)
        if len(matches) < 10:
            continue
        e = essential_from_pose(rotation, translation)
        r, t = decompose_essential(e, matches)
        # small_angle_deg: the arccos-of-trace formula cannot resolve 1e-6 deg
        assert small_angle_deg(r, rotation) < 1e-6
        assert np.degrees(np.arcsin(np.clip(np.linalg.norm(np.cross(t, translation)), 0, 1))) < 1e-6
        assert t @ translation > 0


def test_decompose_unique_candidate_on_generic_scenes(rng):
    # count candidates with full in-front support: generic scenes give exactly one
    rotation, translation, _, matches = make_two_view(rng, n=15)
    e = essential_from_pose(rotation, translation)
    candidates = essential_pose_candidates(e)
    assert len(candidates) <= 4
    for cand_r, cand_t in candidates:
        assert abs(np.linalg.norm(cand_t) - 1.0) < 1e-9
        assert abs(np.linalg.det(cand_r) - 1.0) < 1e-9
    full_support = 0
    for cand_r, cand_t in candidates:
        front = 0
        for match in matches:
            points, well = triangulate_midpoints(cand_r, cand_t, [match])
            point, ok = points[0], well[0]
            z_query = (cand_r @ point + cand_t)[2]
            if ok and point[2] > 0 and z_query > 0:
                front += 1
        if front == len(matches):
            full_support += 1
    assert full_support == 1


def test_decompose_single_match(rng):
    rotation, translation, _, matches = make_two_view(rng, n=6)
    e = essential_from_pose(rotation, translation)
    r, t = decompose_essential(e, matches[:1])
    points, well = triangulate_midpoints(r, t, [matches[0]])
    point, ok = points[0], well[0]
    assert ok
    assert point[2] > 0 and (r @ point + t)[2] > 0


def test_decompose_cheirality_failure():
    # a single match pointing away from every candidate camera is impossible,
    # so force failure with a zero-baseline (ill-conditioned) configuration
    e = essential_from_pose(np.eye(3), [1.0, 0.0, 0.0])
    pure_rotation_match = np.array([[0.3, 0.2, 0.3, 0.2]])  # identical rays
    with pytest.raises(CheiralityError):
        decompose_essential(e, pure_rotation_match)


def _four_triangulation_decomposition(e, matches):
    """decompose_essential with one full midpoint triangulation per candidate, (R, -t) included."""
    matches = np.asarray(matches, dtype=float).reshape(-1, 4)
    ones = np.ones(len(matches))
    best = None
    for rotation, translation in essential_pose_candidates(e):
        d_ref = np.column_stack([matches[:, :2], ones])
        d_query = np.column_stack([matches[:, 2:], ones]) @ rotation
        center = -(rotation.T @ translation)
        a11 = np.sum(d_ref * d_ref, axis=1)
        a12 = np.sum(d_ref * d_query, axis=1)
        a22 = np.sum(d_query * d_query, axis=1)
        det = a11 * a22 - a12 * a12
        well = (det > 1e-12 * a11 * a22) & (float(np.linalg.norm(center)) > 1e-12)
        b1 = d_ref @ center
        b2 = d_query @ center
        safe_det = np.where(well, det, 1.0)
        s = np.where(well, (b1 * a22 - b2 * a12) / safe_det, b1 / a11)
        u = np.where(well, (a12 * b1 - a11 * b2) / safe_det, 0.0)
        points = 0.5 * (s[:, None] * d_ref + center + u[:, None] * d_query)
        z_ref = points[:, 2]
        z_query = points @ rotation[2] + translation[2]
        front = well & (z_ref > 0) & (z_query > 0)
        count = int(front.sum())
        margin = float(np.minimum(z_ref[front], z_query[front]).mean()) if count else 0.0
        if best is None or (count, margin) > best[0]:
            best = ((count, margin), rotation, translation)
    if best[0][0] == 0:
        return None
    return best[1], best[2] / np.linalg.norm(best[2])


def _decomposes_as_four_triangulations(e, matches):
    expected = _four_triangulation_decomposition(e, matches)
    if expected is None:
        with pytest.raises(CheiralityError):
            decompose_essential(e, matches)
        return False
    rotation, translation = decompose_essential(e, matches)
    assert rotation.tobytes() == expected[0].tobytes()
    assert translation.tobytes() == expected[1].tobytes()
    return True


def test_decompose_matches_four_triangulations_bit_for_bit(rng):
    # the one triangulation per rotation judges (R, -t) on negated depths; the
    # reference above triangulates all four candidates
    for _ in range(40):  # generic scenes, with and without noise
        rotation, translation, _, matches = make_two_view(rng, n=int(rng.integers(1, 60)))
        noisy = matches + rng.normal(0.0, 2e-3, matches.shape) * rng.integers(0, 2)
        assert _decomposes_as_four_triangulations(essential_from_pose(rotation, translation), noisy)
    ill_conditioned, resolved = 0, 0
    for baseline in (1e-3, 1e-6, 1e-9):  # near-parallel rays: a tiny baseline, then far points
        for translation, depth in (([baseline, 0.0, 0.0], (3.0, 8.0)), ([1.0, 0.0, 0.0], (3.0 / baseline, 8.0 / baseline))):
            rotation, translation, _, matches = make_two_view(rng, n=40, translation=translation, depth=depth)
            e = essential_from_pose(rotation, [1.0, 0.0, 0.0])
            for r, t in essential_pose_candidates(e):
                ill_conditioned += np.count_nonzero(~triangulate_midpoints(r, t, matches)[1])
            resolved += _decomposes_as_four_triangulations(e, matches)
    assert ill_conditioned > 0 and resolved > 0
    # a grid of simple matches puts well-conditioned points exactly on a camera plane (zero depth)
    grid = np.array(np.meshgrid(*[[-1.0, -0.5, 0.0, 0.5, 1.0]] * 4, indexing="ij")).reshape(4, -1).T
    e = essential_from_pose(np.eye(3), [1.0, 0.0, 0.0])
    points, well = triangulate_midpoints(*essential_pose_candidates(e)[1], grid)
    assert np.any(well & (points[:, 2] == 0.0))
    for _ in range(40):
        _decomposes_as_four_triangulations(e, grid[rng.random(len(grid)) < 0.2])
    assert _decomposes_as_four_triangulations(e, grid)


def test_decompose_all_behind_set_raises_cheirality_error():
    # well-conditioned matches that no candidate puts in front of both cameras
    grid = np.array(np.meshgrid(*[[-1.0, -0.5, 0.0, 0.5, 1.0]] * 4, indexing="ij")).reshape(4, -1).T
    e = essential_from_pose(axis_rotation("y", 20.0), np.array([1.0, 0.0, 0.3]) / np.hypot(1.0, 0.3))
    behind = [row for row in grid if _four_triangulation_decomposition(e, row) is None]
    assert len(behind) > 20
    assert not any(np.all(triangulate_midpoints(r, t, behind)[1] == 0) for r, t in essential_pose_candidates(e))
    assert not _decomposes_as_four_triangulations(e, behind)


# ---------------------------------------------------------------------------
# midpoint triangulation
# ---------------------------------------------------------------------------


def test_triangulate_rays_crossing_at_point():
    rotation = axis_rotation("y", 10.0)
    translation = np.array([1.0, 0.0, 0.0])
    target = np.array([0.0, 0.0, 5.0])
    in_query = rotation @ target + translation
    match = [0.0, 0.0, in_query[0] / in_query[2], in_query[1] / in_query[2]]
    points, well = triangulate_midpoints(rotation, translation, [match])
    point, ok = points[0], well[0]
    assert ok
    assert np.allclose(point, target, atol=1e-9)


def test_triangulate_zero_baseline_flagged():
    points, well = triangulate_midpoints(axis_rotation("y", 5.0), np.zeros(3), [[0.1, 0.2, 0.1, 0.2]])
    point, ok = points[0], well[0]
    assert not ok
    assert np.all(np.isfinite(point))


def test_triangulate_symmetric_geometry_equidistant():
    # symmetric configuration: midpoint is equidistant from both rays
    rotation = np.eye(3)
    translation = np.array([-1.0, 0.0, 0.0])  # query center at +x
    match = [0.1, 0.0, -0.1, 0.0]
    points, well = triangulate_midpoints(rotation, translation, [match])
    point, ok = points[0], well[0]
    assert ok

    def dist_to_ray(p, origin, direction):
        direction = direction / np.linalg.norm(direction)
        v = p - origin
        return np.linalg.norm(v - (v @ direction) * direction)

    d_ref = dist_to_ray(point, np.zeros(3), np.array([0.1, 0.0, 1.0]))
    d_query = dist_to_ray(point, np.array([1.0, 0.0, 0.0]), np.array([-0.1, 0.0, 1.0]))
    assert abs(d_ref - d_query) < 1e-12


# ---------------------------------------------------------------------------
# P3P
# ---------------------------------------------------------------------------


def test_p3p_synthetic_pose_among_solutions(rng):
    for _ in range(30):
        pose = random_pose(rng, max_angle_deg=40.0)
        cam_points = np.column_stack(
            [rng.uniform(-2, 2, 3), rng.uniform(-1.5, 1.5, 3), rng.uniform(3, 9, 3)]
        )
        world = (cam_points - pose.translation) @ pose.rotation
        rays = cam_points[:, :2] / cam_points[:, 2:3]
        solutions = [Pose(*s) for s in pnp_p3p(world[None], rays[None])[0]]
        assert solutions
        best_rot = min(small_angle_deg(s.rotation, pose.rotation) for s in solutions)
        best_t = min(np.linalg.norm(s.translation - pose.translation) for s in solutions)
        assert best_rot < 1e-6
        assert best_t < 1e-8


def test_p3p_identity_case(rng):
    points = np.array([[0.5, 0.1, 4.0], [-0.4, 0.3, 5.0], [0.1, -0.5, 6.0]])
    rays = points[:, :2] / points[:, 2:3]
    solutions = [Pose(*s) for s in pnp_p3p(points[None], rays[None])[0]]
    best = min(
        rotation_error_deg(s.rotation, np.eye(3)) + np.linalg.norm(s.translation)
        for s in solutions
    )
    assert best < 1e-6


def test_p3p_reprojects_sample_exactly(rng):
    pose = random_pose(rng, max_angle_deg=30.0)
    cam_points = np.column_stack(
        [rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), rng.uniform(3, 7, 3)]
    )
    world = (cam_points - pose.translation) @ pose.rotation
    rays = cam_points[:, :2] / cam_points[:, 2:3]
    for solution in pnp_p3p(world[None], rays[None])[0]:
        projected = Pose(*solution).transform(world)
        assert np.all(projected[:, 2] > 0)
        assert np.abs(projected[:, :2] / projected[:, 2:3] - rays).max() < 1e-6


def test_p3p_collinear_points_rejected():
    points = np.array([[0.0, 0.0, 5.0], [0.5, 0.5, 5.0], [1.0, 1.0, 5.0]])
    assert pnp_p3p(points[None], (points[:, :2] / points[:, 2:3])[None]) == [[]]


def test_p3p_fourth_point_disambiguates(rng):
    # robust-loop style selection: the true pose wins on a 4th observation
    pose = random_pose(rng, max_angle_deg=30.0)
    cam_points = np.column_stack(
        [rng.uniform(-2, 2, 4), rng.uniform(-1.5, 1.5, 4), rng.uniform(3, 9, 4)]
    )
    world = (cam_points - pose.translation) @ pose.rotation
    rays = cam_points[:, :2] / cam_points[:, 2:3]
    solutions = [Pose(*s) for s in pnp_p3p(world[None, :3], rays[None, :3])[0]]
    assert solutions

    def fourth_point_error(candidate):
        p = candidate.transform(world[3])
        if p[2] <= 0:
            return np.inf
        return np.linalg.norm(p[:2] / p[2] - rays[3])

    winner = min(solutions, key=fourth_point_error)
    assert small_angle_deg(winner.rotation, pose.rotation) < 1e-6
    assert np.linalg.norm(winner.translation - pose.translation) < 1e-8


def _procrustes_one_pair(ref_points, query_points):
    """The one-pair Kabsch body the stacked alignment replaced; None for a degenerate pair."""
    centroid_ref = ref_points.mean(axis=0)
    centroid_query = query_points.mean(axis=0)
    h = (ref_points - centroid_ref).T @ (query_points - centroid_query)
    u, s, vt = np.linalg.svd(h)
    if s[1] <= 1e-12 * max(s[0], 1e-300):
        return None
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return rotation, centroid_query - rotation @ centroid_ref


def _same_poses(reference, poses):
    return len(reference) == len(poses) and all(
        r.tobytes() == rotation.tobytes() and t.tobytes() == translation.tobytes()
        for (r, t), (rotation, translation) in zip(reference, poses)
    )


def _real_p3p_samples(count):
    """(count, 3, 5) [query pixel, lifted reference point] samples from 1 px-noise, 40%-outlier queries, and K."""
    draw = np.random.default_rng(9)
    samples = []
    seed = 0
    while len(samples) < count:
        scene = synth_scene(SyntheticSceneConfig(rng_seed=seed, pixel_noise_px=1.0, outlier_fraction=0.4))
        k = scene.intrinsics
        for query in scene.queries:
            c = query.correspondences
            depth = scene.depth_ref.sample_nearest(c.ref_px)
            valid = depth > 0
            data = np.column_stack([c.query_px[valid], backproject(k, c.ref_px[valid], depth[valid])])
            samples += [data[draw.choice(len(data), size=3, replace=False)] for _ in range(40)]
        seed += 1
    return np.array(samples[:count]), k


def test_p3p_stack_matches_one_sample_calls_bit_for_bit():
    samples, k = _real_p3p_samples(1040)
    points, rays = samples[:, :, 2:], normalized_coords(k, samples[:, :, :2])
    alone = [pnp_p3p(points[i : i + 1], rays[i : i + 1])[0] for i in range(len(samples))]
    assert sum(map(len, alone)) > len(samples)  # the comparison covers many roots
    for window in (5, 16, 64):
        stacked = []
        for start in range(0, len(samples), window):
            stacked += pnp_p3p(points[start : start + window], rays[start : start + window])
        assert len(stacked) == len(samples)
        for i, (expected, poses) in enumerate(zip(alone, stacked)):
            assert _same_poses(expected, poses), (window, i)


def test_p3p_repeated_roots_are_dropped_as_one_sample_calls_drop_them(monkeypatch):
    # every real root planted twice: each candidate then repeats its twin, and
    # the stacked de-duplication must keep exactly the poses it kept before,
    # as singleton calls with the same planted repeats do
    samples, k = _real_p3p_samples(200)
    points, rays = samples[:, :, 2:], normalized_coords(k, samples[:, :, :2])
    plain = pnp_p3p(points, rays)
    real_roots = solvers._real_roots

    def twice(polys, is_real):
        owner, roots = real_roots(polys, is_real)
        return np.repeat(owner, 2), np.repeat(roots, 2)

    monkeypatch.setattr(solvers, "_real_roots", twice)
    alone = [pnp_p3p(points[i : i + 1], rays[i : i + 1])[0] for i in range(len(samples))]
    assert sum(map(len, plain)) > len(samples)
    for window in (16, 64, len(samples)):
        stacked = []
        for start in range(0, len(samples), window):
            stacked += pnp_p3p(points[start : start + window], rays[start : start + window])
        for i, (expected, once, poses) in enumerate(zip(alone, plain, stacked)):
            assert _same_poses(expected, poses) and _same_poses(once, poses), (window, i)


def test_p3p_quartics_match_np_convolve():
    rng = np.random.default_rng(11)
    n_poly, d_poly = rng.normal(size=(50, 3)), rng.normal(size=(50, 2))
    r01, cos01, cos02 = rng.uniform(0.1, 4.0, 50), rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50)
    quartics = solvers._p3p_quartics(n_poly, d_poly, r01, cos01, cos02)
    for i in range(50):
        expected = (
            np.convolve(n_poly[i], n_poly[i])
            - 2.0 * cos01[i] * np.concatenate([[0.0], np.convolve(n_poly[i], d_poly[i])])
            + np.convolve([-r01[i], 2.0 * r01[i] * cos02[i], 1.0 - r01[i]], np.convolve(d_poly[i], d_poly[i]))
        )
        assert np.allclose(quartics[i], expected, rtol=0, atol=1e-13 * np.abs(expected).max())


def test_p3p_degenerate_samples_leave_their_window_intact():
    samples, k = _real_p3p_samples(14)
    collinear = samples[0].copy()
    collinear[2, 2:] = 2.0 * collinear[1, 2:] - collinear[0, 2:]  # the third point on the line of the first two
    coincident = samples[1].copy()
    coincident[2, 2:] = coincident[0, 2:]  # d02 = 0, the distance ratios' denominator
    mixed = np.concatenate([samples[:5], collinear[None], samples[5:9], coincident[None], samples[9:]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a degenerate sample is set aside before any division
        solutions = pnp_p3p(mixed[:, :, 2:], normalized_coords(k, mixed[:, :, :2]))
    assert solutions[5] == [] and solutions[10] == []
    neighbours = solutions[:5] + solutions[6:10] + solutions[11:]
    assert sum(map(len, neighbours)) > 0
    for sample, poses in zip(samples, neighbours):
        alone = pnp_p3p(sample[None, :, 2:], normalized_coords(k, sample[None, :, :2]))[0]
        assert _same_poses(alone, poses)


def test_candidates_a_pose_would_reject_are_dropped(monkeypatch):
    samples, k = _real_p3p_samples(16)
    points, rays = samples[:, :, 2:], normalized_coords(k, samples[:, :, :2])
    assert sum(map(len, pnp_p3p(points, rays))) > 0
    defect = solvers.rotation_defect
    monkeypatch.setattr(solvers, "rotation_defect", lambda r: defect(r) + 2e-9)  # every rotation past ROTATION_TOL
    assert pnp_p3p(points, rays) == [[]] * 16
    assert not solvers._kabsch(points, points + 1.0)[2].any()
    scene = synth_scene(SyntheticSceneConfig(rng_seed=0))
    q, k = scene.queries[0], scene.intrinsics
    for name in ("pnp", "procrustes"):
        estimate = run_estimator(
            name, q.correspondences, scene.depth_ref, q.depth_query, k, k, EstimatorConfig(max_iterations=100)
        )
        assert estimate.status is EstimateStatus.NO_ESTIMATE


def test_p3p_newton_singular_root_stops_alone():
    rng = np.random.default_rng(4)
    dists = rng.uniform(2.0, 6.0, (5, 3))
    cosines = rng.uniform(0.8, 0.99, (3, 5))
    lengths = rng.uniform(0.5, 2.0, (3, 5))
    dists[2, :2] = 1.0
    cosines[0, 2] = 1.0  # root 2: the first row of its Jacobian is zero
    stepped = solvers._p3p_newton(dists, *cosines, *lengths)
    assert stepped[2].tobytes() == dists[2].tobytes()
    for i in (0, 1, 3, 4):
        alone = solvers._p3p_newton(dists[i : i + 1], *cosines[:, i : i + 1], *lengths[:, i : i + 1])
        assert stepped[i].tobytes() == alone[0].tobytes()
        assert stepped[i].tobytes() != dists[i].tobytes()


def test_p3p_input_shape():
    with pytest.raises(InvalidParameterError):
        pnp_p3p(np.zeros((3, 3)), np.zeros((3, 2)))  # one sample is a stack of one
    with pytest.raises(InvalidParameterError):
        pnp_p3p(np.zeros((2, 3, 3)), np.zeros((3, 3, 2)))
    with pytest.raises(InvalidParameterError):
        pnp_p3p(np.zeros((1, 4, 3)), np.zeros((1, 4, 2)))
    assert pnp_p3p(np.zeros((0, 3, 3)), np.zeros((0, 3, 2))) == []


# ---------------------------------------------------------------------------
# essential-matrix refinement
# ---------------------------------------------------------------------------


def _perturbed_start(seed, pixel_noise_px=0.0):
    """Normalized matches of a synthetic query, its true pose, and an essential
    matrix whose rotation is 0.2-2 degrees from the truth."""
    scene = synth_scene(SyntheticSceneConfig(rng_seed=seed, pixel_noise_px=pixel_noise_px))
    q = scene.queries[0]
    k = scene.intrinsics
    matches = np.column_stack(
        [normalized_coords(k, q.correspondences.ref_px), normalized_coords(k, q.correspondences.query_px)]
    )
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(3)
    angle = np.radians(rng.uniform(0.2, 2.0))
    start_rotation = rotation_from_axis_angle(axis / np.linalg.norm(axis) * angle) @ q.pose.rotation
    return matches, q.pose, essential_from_pose(start_rotation, q.pose.translation)


def test_refine_essential_recovers_exact_rotation_from_nearby_start():
    # noiseless matches: the exact pose, not a point short of it
    for seed in range(20):
        matches, truth, start = _perturbed_start(seed)
        rotation, direction = decompose_essential(refine_essential(start, matches), matches)
        assert small_angle_deg(rotation, truth.rotation) < 1e-9, seed
        truth_direction = truth.translation / np.linalg.norm(truth.translation)
        assert np.linalg.norm(direction - truth_direction) < 1e-10, seed


def test_refine_essential_never_raises_sampson_cost_on_noise():
    for seed in range(10):
        matches, truth, start = _perturbed_start(seed, pixel_noise_px=1.0)
        for e in (start, essential_from_pose(truth.rotation, truth.translation)):
            refined = refine_essential(e, matches)
            assert np.sum(sampson_error(refined, matches) ** 2) <= np.sum(sampson_error(e, matches) ** 2), seed


def _skew_reference(v):
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _rodrigues_reference(w):
    """The one-vector Rodrigues body that the stacked form replaced."""
    angle = float(np.linalg.norm(w))
    if angle < 1e-12:
        return np.eye(3) + _skew_reference(w)
    k = _skew_reference(w / angle)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def test_stacked_rodrigues_rounds_as_the_one_vector_form():
    rng = np.random.default_rng(7)
    w = rng.normal(size=(4000, 3)) * 10.0 ** rng.uniform(-16, 1, (4000, 1))
    w[:30] *= 10.0 ** rng.uniform(-15, -12.5, (30, 1)) / np.linalg.norm(w[:30], axis=1, keepdims=True)
    w[30] = 0.0
    w[31] = [1e-12, 0.0, 0.0]  # the switch itself
    assert (np.linalg.norm(w, axis=1) < 1e-12).sum() >= 31
    expected = np.array([_rodrigues_reference(v) for v in w])
    assert skew(w).tobytes() == np.array([_skew_reference(v) for v in w]).tobytes()
    assert np.array([rotation_from_axis_angle(v) for v in w]).tobytes() == expected.tobytes()
    for window in (1, 10, 4000):
        parts = [rotation_from_axis_angle(w[i : i + window]) for i in range(0, len(w), window)]
        assert np.concatenate(parts).tobytes() == expected.tobytes()


def test_stacked_essential_from_pose_rounds_as_the_one_pose_form():
    rng = np.random.default_rng(8)
    rotations = np.array([random_rotation(rng) for _ in range(200)])
    translations = rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-8, 3, (200, 1))
    stacked = essential_from_pose(rotations, translations)
    one = [essential_from_pose(r, t) for r, t in zip(rotations, translations)]
    reference = [_skew_reference(t) @ r / np.linalg.norm(_skew_reference(t) @ r) for r, t in zip(rotations, translations)]
    assert stacked.tobytes() == np.array(one).tobytes()
    assert np.abs(stacked - reference).max() < 1e-15
    translations[3] = 0.0
    with pytest.raises(InvalidParameterError):
        essential_from_pose(rotations, translations)


def test_sampson_jacobian_matches_central_differences():
    step = 1e-6
    checked = 0
    for seed in range(8):
        for noise in (0.0, 1.0):
            matches, _, start = _perturbed_start(seed, pixel_noise_px=noise)
            rotation, t = pose = decompose_essential(start, matches)
            q_ref = np.column_stack([matches[:, :2], np.ones(len(matches))])
            q_query = np.column_stack([matches[:, 2:], np.ones(len(matches))])
            directions = solvers._relative_pose_directions(rotation, t)
            jac = solvers._sampson_jacobian(skew(t) @ rotation, directions, q_ref, q_query)
            central = np.empty_like(jac)
            for j, delta in enumerate(step * np.eye(5)):
                forward = sampson_error(essential_from_pose(*solvers._perturb_relative_pose(pose, delta)), matches)
                backward = sampson_error(essential_from_pose(*solvers._perturb_relative_pose(pose, -delta)), matches)
                central[:, j] = (forward - backward) / (2.0 * step)
            away = sampson_error(start, matches) > 1e-4  # |a| / d is not differentiable where it is zero
            assert away.sum() > 0.9 * len(matches)
            assert np.abs(jac[away] - central[away]).max() <= 1e-6 * np.abs(jac[away]).max(), (seed, noise)
            checked += 1
    assert checked == 16


# ---------------------------------------------------------------------------
# PnP refinement
# ---------------------------------------------------------------------------


def _pnp_scene(rng, n=30):
    pose = random_pose(rng, max_angle_deg=25.0, translation_scale=0.5)
    cam_points = np.column_stack(
        [rng.uniform(-2, 2, n), rng.uniform(-1.5, 1.5, n), rng.uniform(4, 9, n)]
    )
    world = (cam_points - pose.translation) @ pose.rotation
    pixels = np.column_stack(
        [
            K.fx * cam_points[:, 0] / cam_points[:, 2] + K.cx,
            K.fy * cam_points[:, 1] / cam_points[:, 2] + K.cy,
        ]
    )
    return pose, world, pixels


def test_refine_at_optimum_is_noop(rng):
    pose, world, pixels = _pnp_scene(rng)
    result = refine_pnp(pose, world, pixels, K)
    assert not result.diverged
    assert np.abs(result.pose.rotation - pose.rotation).max() < 1e-9
    assert np.abs(result.pose.translation - pose.translation).max() < 1e-9


def test_refine_from_the_exact_pose_stops_within_two_trials(monkeypatch):
    transform = Pose.transform
    calls = []

    def counted(pose, points):
        calls.append(pose)
        return transform(pose, points)

    monkeypatch.setattr(Pose, "transform", counted)
    rng = np.random.default_rng(0)
    for _ in range(5):
        pose, world, pixels = _pnp_scene(rng)
        calls.clear()
        result = refine_pnp(pose, world, pixels, K)
        assert not result.diverged
        assert len(calls) <= 3  # the initial evaluation and at most two trial steps


def test_refine_recovers_from_perturbation(rng):
    for _ in range(10):
        pose, world, pixels = _pnp_scene(rng)
        start = Pose(axis_rotation("z", 1.0) @ pose.rotation, pose.translation + [0.05, 0.0, 0.0])
        result = refine_pnp(start, world, pixels, K)
        assert result.final_cost <= result.initial_cost
        assert small_angle_deg(result.pose.rotation, pose.rotation) < 1e-6
        assert np.linalg.norm(result.pose.translation - pose.translation) < 1e-6


def test_refine_never_increases_cost_on_noise(rng):
    pose, world, pixels = _pnp_scene(rng)
    noisy = pixels + rng.normal(0.0, 2.0, pixels.shape)
    start = Pose(axis_rotation("y", 0.5) @ pose.rotation, pose.translation + [0.02, -0.01, 0.03])
    result = refine_pnp(start, world, noisy, K)
    assert result.final_cost <= result.initial_cost


def test_refine_infeasible_start_diverges_to_initial_pose(rng):
    pose, world, pixels = _pnp_scene(rng)
    behind = Pose(pose.rotation, pose.translation - [0.0, 0.0, 20.0])  # every point at z < 0
    result = refine_pnp(behind, world, pixels, K)
    assert result.diverged
    assert result.pose is behind
    assert result.initial_cost == result.final_cost == np.inf


def test_refine_needs_four_points(rng):
    pose, world, pixels = _pnp_scene(rng, n=3)
    with pytest.raises(InvalidParameterError):
        refine_pnp(pose, world, pixels, K)


def _toy_loop(evaluate, jacobian, start):
    """`_damped_least_squares` on a toy problem whose x is its own translation, with the refiners' settings."""
    return solvers._damped_least_squares(start, evaluate, jacobian, lambda x, step: x + step, lambda x: x,
                                         1e-3, 1e12, 1e-12, 100)


def test_damped_least_squares_raises_the_damping_past_a_singular_system(monkeypatch):
    solve, singular = np.linalg.solve, []

    def counted(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(a)
            raise

    monkeypatch.setattr(np.linalg, "solve", counted)
    jac = np.array([[1e10, 1e10]])  # 1e20 + damping rounds to 1e20 for every damping up to 1e3 at least

    def evaluate(x):
        residuals = jac @ x - 1.0
        return float(residuals @ residuals), residuals, None

    x, initial_cost, cost, diverged = _toy_loop(evaluate, lambda x, r, state: jac, np.zeros(2))
    assert len(singular) >= 7 and not diverged  # dampings 1e-3 to 1e3 leave J^T J + damping I singular
    assert initial_cost == 1.0 and cost < 1e-30 and (jac @ x)[0] == pytest.approx(1.0)


def test_damped_least_squares_keeping_no_step_returns_the_start_diverged():
    start = np.zeros(1)
    trials = []

    def evaluate(x):  # every step raises the cost
        trials.append(x)
        return (2.0 if x.any() else 1.0), np.ones(1), None

    x, initial_cost, cost, diverged = _toy_loop(evaluate, lambda x, r, state: np.ones((1, 1)), start)
    assert x is start and initial_cost == cost == 1.0 and diverged
    assert len(trials) == 16  # the start, then one trial for each damping 1e-3 to 1e11 below the 1e12 cap


# ---------------------------------------------------------------------------
# Procrustes
# ---------------------------------------------------------------------------


def test_procrustes_identity():
    points = np.random.default_rng(3).normal(size=(12, 3))
    pose = procrustes_align(points, points)
    assert np.allclose(pose.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(pose.translation, 0.0, atol=1e-12)


def test_procrustes_recovers_known_transform(rng):
    for _ in range(20):
        truth = random_pose(rng)
        points = rng.normal(size=(15, 3))
        moved = truth.transform(points)
        pose = procrustes_align(points, moved)
        assert np.abs(pose.rotation - truth.rotation).max() < 1e-9
        assert np.abs(pose.translation - truth.translation).max() < 1e-9


def test_procrustes_near_reflection_stays_proper(rng):
    # nearly planar sets with a flipped pairing push det(V U^T) negative
    points = rng.normal(size=(10, 3))
    points[:, 2] *= 1e-9
    mirrored = points.copy()
    mirrored[:, 0] = -mirrored[:, 0]
    pose = procrustes_align(points, mirrored)
    assert abs(np.linalg.det(pose.rotation) - 1.0) < 1e-9


def test_procrustes_equivariance(rng):
    # conjugating both point sets by a rigid transform conjugates the output
    truth = random_pose(rng)
    points = rng.normal(size=(12, 3))
    moved = truth.transform(points)
    g = random_pose(rng)
    pose_direct = procrustes_align(points, moved)
    pose_conj = procrustes_align(g.transform(points), g.transform(moved))
    # conjugated alignment = g . pose . g^-1
    expected_rot = g.rotation @ pose_direct.rotation @ g.rotation.T
    expected_t = (
        g.rotation @ pose_direct.translation
        + g.translation
        - expected_rot @ g.translation
    )
    assert np.abs(pose_conj.rotation - expected_rot).max() < 1e-9
    assert np.abs(pose_conj.translation - expected_t).max() < 1e-9


def test_procrustes_degenerate_inputs():
    line = np.column_stack([np.arange(5.0), np.zeros(5), np.zeros(5)])
    with pytest.raises(DegenerateSampleError):
        procrustes_align(line, line + 1.0)
    coincident = np.ones((4, 3))
    with pytest.raises(DegenerateSampleError):
        procrustes_align(coincident, coincident)
    with pytest.raises(InvalidParameterError):
        procrustes_align(np.zeros((2, 3)), np.zeros((2, 3)))

def test_kabsch_rounds_as_the_one_pair_alignment():
    rng = np.random.default_rng(5)
    for m in range(3, 1001):
        truth = random_pose(rng)
        points = rng.normal(size=(m, 3)) * rng.uniform(0.1, 10.0)
        moved = truth.transform(points) + rng.normal(0.0, 0.01, (m, 3))
        rotation, translation, ok = solvers._kabsch(points[None], moved[None])
        expected_rotation, expected_translation = _procrustes_one_pair(points, moved)
        assert ok[0], m
        assert rotation[0].tobytes() == expected_rotation.tobytes(), m
        assert translation[0].tobytes() == expected_translation.tobytes(), m
        pose = procrustes_align(points, moved)
        assert pose.rotation.tobytes() == expected_rotation.tobytes(), m
    # a window of minimal samples, one of them degenerate, rounds as its pairs alone
    ref = rng.normal(size=(16, 3, 3))
    query = ref @ random_pose(rng).rotation.T + rng.normal(size=(16, 1, 3))
    ref[4, 2] = ref[4, 1]
    query[4, 2] = query[4, 1]
    ref[9] = ref[9, :1]
    rotation, translation, ok = solvers._kabsch(ref, query)
    assert ok.tolist() == [i not in (4, 9) for i in range(16)]
    for i in np.flatnonzero(ok):
        expected_rotation, expected_translation = _procrustes_one_pair(ref[i], query[i])
        assert rotation[i].tobytes() == expected_rotation.tobytes()
        assert translation[i].tobytes() == expected_translation.tobytes()
    non_finite = ref[:2].copy()
    non_finite[0, 0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        assert solvers._kabsch(non_finite, query[:2])[2].tolist() == [False, True]
