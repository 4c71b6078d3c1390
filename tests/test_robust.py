import tracemalloc

import numpy as np
import pytest

from mfpose import robust
from mfpose.errors import (
    CheiralityError,
    InvalidParameterError,
    NoConsensusError,
    ScaleConsensusError,
)
from mfpose.geometry import rotation_error_deg
from mfpose.robust import (
    EstimatorConfig,
    ScaleConsensusConfig,
    ransac,
    sampson_error,
    scale_consensus,
)
from mfpose.solvers import (
    decompose_essential,
    essential_five_point,
    essential_from_pose,
    refine_essential,
)

from conftest import random_rotation


# ---------------------------------------------------------------------------
# a toy 1-D line problem keeps the engine tests independent of the solvers
# ---------------------------------------------------------------------------


def line_solver(samples):
    models = []
    for (x1, y1), (x2, y2) in samples:
        if x1 == x2:
            models.append([])  # vertical sample
            continue
        slope = (y2 - y1) / (x2 - x1)
        models.append([(slope, y1 - slope * x1)])
    return models


def line_residual(models, data):
    return np.stack([np.abs(data[:, 1] - (slope * data[:, 0] + intercept)) for slope, intercept in models])


def make_line_data(rng, n=200, outliers=0.0, noise=0.0, slope=0.7, intercept=-0.3):
    x = rng.uniform(-10, 10, n)
    y = slope * x + intercept + rng.normal(0.0, noise, n) * (noise > 0)
    n_out = int(outliers * n)
    y[:n_out] = rng.uniform(-20, 20, n_out)
    return np.column_stack([x, y])


def test_ransac_all_inliers_noiseless(rng):
    data = make_line_data(rng)
    result = ransac(data, line_solver, line_residual, 2, 0.01, EstimatorConfig(rng_seed=5))
    assert result.inlier_count == len(data)
    assert result.inlier_mask.all()
    # adaptive termination collapses to the configured floor at 100% inliers
    assert result.iterations == robust._MIN_ITERATIONS


def test_ransac_rejects_all_outlier_data(rng):
    data = np.column_stack([rng.uniform(-10, 10, 60), rng.uniform(-1e3, 1e3, 60)])
    with pytest.raises(NoConsensusError, match="inliers < 5$"):  # the consensus floor
        ransac(data, line_solver, line_residual, 2, 1e-4, EstimatorConfig(rng_seed=5, max_iterations=300))


def test_ransac_too_little_data():
    with pytest.raises(NoConsensusError):
        ransac(np.zeros((1, 2)), line_solver, line_residual, 2, 0.01, EstimatorConfig())


def test_ransac_rejects_a_threshold_that_is_not_positive_or_whose_square_overflows(rng):
    data = make_line_data(rng)
    for threshold in (0.0, -1.0, np.nan, np.inf, 1e200):
        with pytest.raises(InvalidParameterError):
            ransac(data, line_solver, line_residual, 2, threshold, EstimatorConfig())


def test_ransac_determinism(rng):
    data = make_line_data(rng, outliers=0.3, noise=0.05)
    cfg = EstimatorConfig(rng_seed=42)
    a = ransac(data, line_solver, line_residual, 2, 0.2, cfg)
    b = ransac(data, line_solver, line_residual, 2, 0.2, cfg)
    assert a.model == b.model
    assert a.score == b.score
    assert np.array_equal(a.inlier_mask, b.inlier_mask)
    assert a.iterations == b.iterations


def test_msac_score_monotone_in_threshold(rng):
    # same hypotheses + seed, growing threshold: truncated loss cannot drop
    data = make_line_data(rng, outliers=0.3, noise=0.05)
    scores = []
    for threshold in (0.05, 0.1, 0.2, 0.5, 1.0):
        cfg = EstimatorConfig(rng_seed=7, max_iterations=50)
        scores.append(ransac(data, line_solver, line_residual, 2, threshold, cfg).score)
    assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))


def test_ransac_degenerate_samples_are_skipped(rng):
    data = make_line_data(rng, n=40)
    data[::2, 0] = 3.0  # half the points share x: vertical samples are frequent
    result = ransac(data, line_solver, line_residual, 2, 0.05, EstimatorConfig(rng_seed=0))
    assert result.inlier_count >= 20


class RecordingSolver:
    """Wraps a window solver and keeps every window of samples it is given."""

    def __init__(self, solve):
        self.solve = solve
        self.windows = []

    def __call__(self, samples):
        self.windows.append(np.array(samples))
        return self.solve(samples)

    @property
    def solved(self):
        return sum(len(w) for w in self.windows)


def _window_limit(n):
    """The widest window after the first one, for n data rows."""
    return min(robust._WINDOW, max(16, robust._WINDOW_ROWS // n))


def _check_window_rules(data, solver, result, sample_size, config):
    # the solver sees the samples of one default_rng(seed).choice per sample, in order
    rng = np.random.default_rng(config.rng_seed)
    expected = data[np.array([rng.choice(len(data), size=sample_size, replace=False) for _ in range(solver.solved)])]
    assert np.array_equal(np.concatenate(solver.windows), expected)
    # the first window is _MIN_ITERATIONS; each later one is what the cap leaves; none passes the limit
    limit = _window_limit(len(data))
    assert len(solver.windows[0]) == min(robust._MIN_ITERATIONS, config.max_iterations, limit)
    drawn = len(solver.windows[0])
    for window in solver.windows[1:]:
        assert 1 <= len(window) <= min(config.max_iterations - drawn, limit)
        drawn += len(window)
    # consumed samples are the reported iterations; only the last window runs past them
    assert solver.solved - len(solver.windows[-1]) < result.iterations <= solver.solved


def test_ransac_windows_follow_the_draw_order(rng):
    for seed in range(6):
        data = make_line_data(rng, outliers=0.5, noise=0.05)
        cfg = EstimatorConfig(rng_seed=seed)
        solver = RecordingSolver(line_solver)
        result = ransac(data, solver, line_residual, 2, 0.2, cfg)
        _check_window_rules(data, solver, result, 2, cfg)
        assert result.iterations > robust._MIN_ITERATIONS  # the windows grew past the first one


def test_ransac_windows_on_essential_problem(rng):
    matches, _, _, _ = _essential_scene_with_outliers(rng)
    cfg = EstimatorConfig(rng_seed=4, max_iterations=300)
    solver = RecordingSolver(essential_five_point)
    result = ransac(matches, solver, sampson_error, 5, 4.0 / 500.0, cfg)
    _check_window_rules(matches, solver, result, 5, cfg)


def test_ransac_solves_a_40_percent_outlier_essential_problem_in_few_windows(rng):
    # each solve call has a fixed cost, so a 280-match query with 40% outliers
    # (about 120 samples) takes few wide windows, not 8 of at most 16
    for seed in range(4):
        matches, _, _, _ = _essential_scene_with_outliers(rng, n=300)
        matches = matches[:280]
        cfg = EstimatorConfig(rng_seed=seed)
        solver = RecordingSolver(essential_five_point)
        result = ransac(matches, solver, sampson_error, 5, 4.0 / 500.0, cfg)
        _check_window_rules(matches, solver, result, 5, cfg)
        assert result.iterations > 10 + 10 + 16 + 16  # more than 4 windows of the old 16-sample schedule
        assert len(solver.windows) <= 4, [len(w) for w in solver.windows]


def test_ransac_windows_of_a_large_problem_stay_at_16(rng):
    # the samples x rows bound: score arrays of a 4096-row problem stay at the
    # size of a 16-sample window
    data = make_line_data(rng, n=4096, outliers=0.7, noise=0.05)
    cfg = EstimatorConfig(rng_seed=1)
    solver = RecordingSolver(line_solver)
    result = ransac(data, solver, line_residual, 2, 0.2, cfg)
    _check_window_rules(data, solver, result, 2, cfg)
    assert len(solver.windows) > 2
    assert max(len(w) for w in solver.windows) == 16


def test_ransac_clean_problem_solves_min_iterations(rng):
    data = make_line_data(rng)
    solver = RecordingSolver(line_solver)
    result = ransac(data, solver, line_residual, 2, 0.01, EstimatorConfig(rng_seed=5))
    assert result.iterations == solver.solved == robust._MIN_ITERATIONS
    assert len(solver.windows) == 1


def test_ransac_result_does_not_depend_on_window_size(rng, monkeypatch):
    # one sample per window consumes every sample it solves: the reference
    overrun = 0
    for seed in range(20):
        data = make_line_data(rng, outliers=0.6, noise=0.05)
        data[::5, 0] = 3.0  # frequent unusable (vertical) samples
        cfg = EstimatorConfig(rng_seed=seed)
        results = []
        # 64 samples, or 20 under a row bound of 20 x 200 rows
        for window, rows in ((1, 2**14), (3, 2**14), (16, 2**14), (64, 20 * len(data)), (64, 2**14)):
            monkeypatch.setattr(robust, "_WINDOW", window)
            monkeypatch.setattr(robust, "_WINDOW_ROWS", rows)
            solver = RecordingSolver(line_solver)
            results.append(ransac(data, solver, line_residual, 2, 0.1, cfg))
            _check_window_rules(data, solver, results[-1], 2, cfg)
        overrun += solver.solved - results[-1].iterations
        for other in results[1:]:
            assert other.model == results[0].model
            assert other.score == results[0].score
            assert other.iterations == results[0].iterations
            assert np.array_equal(other.inlier_mask, results[0].inlier_mask)
    assert overrun > 0  # some windows of 64 were cut short by the adaptive stop


def _essential_scene_with_outliers(rng, n=150, outlier_fraction=0.4, noise=1.0 / 500.0):
    """In-frame two-view scene (f=500-like FOV): matches, truth mask, (R, t)."""
    rotation = random_rotation(rng, 25.0)
    translation = rng.standard_normal(3)
    translation /= np.linalg.norm(translation)
    # sample reference rays across the full frustum, then lift to 3D
    rays = np.column_stack([rng.uniform(-0.55, 0.55, n), rng.uniform(-0.42, 0.42, n)])
    depth = rng.uniform(2.0, 6.0, n)
    points = np.column_stack([rays[:, 0] * depth, rays[:, 1] * depth, depth])
    in_query = points @ rotation.T + translation
    keep = in_query[:, 2] > 0.3
    points, in_query = points[keep], in_query[keep]
    matches = np.column_stack(
        [points[:, :2] / points[:, 2:3], in_query[:, :2] / in_query[:, 2:3]]
    )
    matches += rng.normal(0.0, noise, matches.shape)
    n_out = int(outlier_fraction * len(matches))
    truth = np.ones(len(matches), dtype=bool)
    truth[:n_out] = False
    matches[:n_out, 2:] = np.column_stack(
        [rng.uniform(-0.6, 0.6, n_out), rng.uniform(-0.45, 0.45, n_out)]
    )
    return matches, truth, rotation, translation


def essential_refit(model, inliers):
    try:
        return refine_essential(model, inliers)
    except CheiralityError:
        return model


def test_ransac_scores_a_window_in_bounded_blocks_with_the_same_result(rng, monkeypatch):
    matches, _, _, _ = _essential_scene_with_outliers(rng, n=150, outlier_fraction=0.6)
    cfg = EstimatorConfig(rng_seed=3, max_iterations=300)
    results = []
    for models_per_call in (None, 7, 1):  # None: the module's bound, one call per window here
        if models_per_call is not None:
            monkeypatch.setattr(robust, "_SCORE_ENTRIES", models_per_call * len(matches) + len(matches) - 1)
        calls = []

        def residuals(models, data):
            calls.append(len(models))
            return sampson_error(np.array(models), data)

        results.append(ransac(matches, essential_five_point, residuals, 5, 4.0 / 500.0, cfg, refit=essential_refit))
        assert max(calls) <= (models_per_call or 10 * 64)
        assert models_per_call is None or max(calls) == models_per_call
    for other in results[1:]:
        assert other.model.tobytes() == results[0].model.tobytes()
        assert other.score == results[0].score
        assert other.iterations == results[0].iterations
        assert np.array_equal(other.inlier_mask, results[0].inlier_mask)


def test_ransac_essential_with_outliers(rng):
    # Monte-Carlo: 60% inliers at 1 px noise (f = 500), consensus refit on;
    # 400 raw matches is the regime of learned matchers
    successes = 0
    trials = 100
    for trial in range(trials):
        matches, truth, rotation, _ = _essential_scene_with_outliers(rng, n=400)
        cfg = EstimatorConfig(rng_seed=trial, max_iterations=2000)
        result = ransac(matches, essential_five_point, sampson_error, 5, 4.0 / 500.0, cfg, refit=essential_refit)
        r, _ = decompose_essential(result.model, matches[result.inlier_mask])
        recovered = result.inlier_mask[truth].mean()
        if rotation_error_deg(r, rotation) < 0.5 and recovered >= 0.9:
            successes += 1
    assert successes >= 0.95 * trials


def test_ransac_refit_never_regresses_score(rng):
    matches, _, _, _ = _essential_scene_with_outliers(rng)
    cfg = EstimatorConfig(rng_seed=3, max_iterations=500)
    plain = ransac(matches, essential_five_point, sampson_error, 5, 4.0 / 500.0, cfg)
    refitted = ransac(matches, essential_five_point, sampson_error, 5, 4.0 / 500.0, cfg, refit=essential_refit)
    assert refitted.score <= plain.score


# ---------------------------------------------------------------------------
# Sampson error
# ---------------------------------------------------------------------------


def test_sampson_zero_on_exact_match(rng):
    rotation = random_rotation(rng, 30.0)
    translation = np.array([0.4, -0.1, 0.2])
    e = essential_from_pose(rotation, translation)
    point = np.array([0.3, -0.2, 5.0])
    in_query = rotation @ point + translation
    match = [point[0] / point[2], point[1] / point[2], in_query[0] / in_query[2], in_query[1] / in_query[2]]
    assert sampson_error(e, match) < 1e-12


def test_sampson_nonnegative_and_vectorized(rng):
    e = essential_from_pose(np.eye(3), [1.0, 0.0, 0.0])
    matches = rng.uniform(-0.5, 0.5, (100, 4))
    values = sampson_error(e, matches)
    assert values.shape == (100,)
    assert np.all(values >= 0)


def test_sampson_stack_matches_one_matrix_calls_bit_for_bit(rng):
    # a model's row must not depend on the other models scored with it:
    # stacks of 1 to 90, a list of one as the refit scores it, a bare matrix
    matches, _, _, _ = _essential_scene_with_outliers(rng, n=280)
    for size in [1, 2, 16, 90] + rng.integers(1, 91, 12).tolist():
        stack = np.array([essential_from_pose(random_rotation(rng, 30.0), rng.normal(size=3)) for _ in range(size)])
        rows = sampson_error(stack, matches)
        assert rows.shape == (size, len(matches))
        for e, row in zip(stack, rows):
            assert sampson_error(e, matches).tobytes() == row.tobytes()
            assert sampson_error([e], matches)[0].tobytes() == row.tobytes()


def test_sampson_first_order_in_perturbation(rng):
    # finite-difference check: a displacement of size delta along the joint
    # 4-space constraint gradient gives residual -> delta; a one-coordinate
    # displacement stays linear with a geometry constant in (0, 1]
    rotation = random_rotation(rng, 20.0)
    translation = np.array([0.5, 0.2, -0.1])
    e = essential_from_pose(rotation, translation)
    point = np.array([0.2, 0.1, 4.0])
    in_query = rotation @ point + translation
    base = np.array(
        [point[0] / point[2], point[1] / point[2], in_query[0] / in_query[2], in_query[1] / in_query[2]]
    )
    q_ref = np.array([base[0], base[1], 1.0])
    q_query = np.array([base[2], base[3], 1.0])
    grad = np.concatenate([(e.T @ q_query)[:2], (e @ q_ref)[:2]])
    grad /= np.linalg.norm(grad)
    for delta in (1e-4, 1e-6):
        assert abs(sampson_error(e, base + delta * grad) / delta - 1.0) < 1e-3

    ratios = []
    for delta in (1e-4, 1e-5, 1e-6):
        perturbed = base.copy()
        perturbed[2] += delta  # move the query point off the epipolar line
        ratios.append(sampson_error(e, perturbed) / delta)
    assert abs(ratios[0] - ratios[1]) / ratios[1] < 1e-3
    assert abs(ratios[1] - ratios[2]) / ratios[2] < 1e-3
    assert 0.05 < ratios[2] <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# scale consensus
# ---------------------------------------------------------------------------


def brute_force_consensus(estimates, tolerance, min_component):
    """Independent O(n^2) oracle: every candidate's band tested against every estimate, with the spec tie-breaks."""
    best = None
    for i, center in enumerate(estimates):
        if center <= min_component:
            continue
        supporters = np.sort(estimates[np.abs(estimates - center) <= tolerance * center])
        scale = float(np.mean(supporters))
        mad = float(np.mean(np.abs(supporters - scale)))
        key = (-len(supporters), mad, scale)
        if best is None or key < best[0]:
            best = (key, scale, len(supporters))
    if best is None:
        return None
    return best[1], best[2]


def make_scale_problem(rng, estimates, rotation=None):
    """3D-3D correspondences whose per-match scale estimates are exactly `estimates`."""
    estimates = np.asarray(estimates, dtype=float)
    rotation = np.eye(3) if rotation is None else rotation
    t_hat = np.array([0.0, 0.0, 1.0])
    ref = rng.normal(0.0, 2.0, (len(estimates), 3))
    lateral = rng.normal(0.0, 0.5, (len(estimates), 2))
    query = ref @ rotation.T
    query[:, 0] += lateral[:, 0]
    query[:, 1] += lateral[:, 1]
    query[:, 2] += estimates
    return ref, query, rotation, t_hat


def test_scale_consensus_unanimous(rng):
    ref, query, rotation, t_hat = make_scale_problem(rng, np.full(9, 2.0))
    scale, support = scale_consensus(ref, query, rotation, t_hat)
    assert support == 9
    assert abs(scale - 2.0) < 1e-12


def test_scale_consensus_example_cluster(rng):
    estimates = np.array([2.0, 1.98, 2.02, 2.01, 1.99, 2.0, 0.1, 5.0, 9.0, 20.0])
    ref, query, rotation, t_hat = make_scale_problem(rng, estimates)
    scale, support = scale_consensus(ref, query, rotation, t_hat)
    assert support == 6
    assert abs(scale - np.mean(estimates[:6])) < 1e-9


def test_scale_consensus_orthogonal_displacement_fails(rng):
    # displacement orthogonal to t_hat: every projection is ~0
    ref = rng.normal(0.0, 2.0, (12, 3))
    query = ref + np.array([0.7, 0.0, 0.0])
    with pytest.raises(ScaleConsensusError):
        scale_consensus(ref, query, np.eye(3), np.array([0.0, 0.0, 1.0]))


def test_scale_consensus_all_negative_fails(rng):
    ref, query, rotation, t_hat = make_scale_problem(rng, np.full(6, -1.5))
    with pytest.raises(ScaleConsensusError):
        scale_consensus(ref, query, rotation, t_hat)


def test_scale_consensus_order_invariance(rng):
    estimates = np.concatenate([rng.normal(3.0, 0.05, 15), rng.uniform(0.2, 10.0, 10)])
    ref, query, rotation, t_hat = make_scale_problem(rng, estimates)
    scale1, support1 = scale_consensus(ref, query, rotation, t_hat)
    perm = rng.permutation(len(estimates))
    scale2, support2 = scale_consensus(ref[perm], query[perm], rotation, t_hat)
    assert scale1 == scale2
    assert support1 == support2


def exact_scale_problem(estimates):
    """3D-3D correspondences whose per-match scale estimates are exactly `estimates`, unrounded."""
    query = np.zeros((len(estimates), 3))
    query[:, 2] = estimates
    return np.zeros_like(query), query, np.eye(3), np.array([0.0, 0.0, 1.0])


def _vote_matches_brute_force(ref, query, rotation, t_hat, cfg):
    expected = brute_force_consensus((query - ref @ rotation.T) @ t_hat, cfg.relative_tolerance, cfg.min_component)
    if expected is None:
        with pytest.raises(ScaleConsensusError):
            scale_consensus(ref, query, rotation, t_hat, cfg)
        return
    scale, support = scale_consensus(ref, query, rotation, t_hat, cfg)
    assert scale == expected[0]
    assert support == expected[1]


def _mixed_estimates(rng, n, kind):
    if kind == 0:
        return rng.uniform(-1.0, 10.0, n)
    if kind == 1:
        return np.concatenate([rng.normal(2.0, 0.02, max(1, n // 2)), rng.uniform(0.1, 20.0, n - max(1, n // 2))])
    return np.round(rng.uniform(0.0, 5.0, n), 1)  # exercises exact ties


def test_scale_consensus_matches_brute_force(rng):
    cfg = ScaleConsensusConfig()
    for _ in range(200):
        n = rng.integers(1, 40)
        estimates = _mixed_estimates(rng, n, rng.integers(0, 3))
        _vote_matches_brute_force(*make_scale_problem(rng, estimates), cfg)
    tolerances = (1e-9, 0.1, 2.0)
    for n in (300, 1000, 3000):  # large populations, at the tightest, default and loosest bands
        for kind in range(3):
            for tolerance in tolerances:
                estimates = _mixed_estimates(rng, n, kind)
                _vote_matches_brute_force(*make_scale_problem(rng, estimates), ScaleConsensusConfig(tolerance))
    for tolerance in tolerances:  # votes on a band's edges, rounded either way, and one ulp either side
        for _ in range(10):
            centers = rng.uniform(0.5, 4.0, 6)
            edges = np.concatenate(
                [centers * (1.0 - tolerance), centers * (1.0 + tolerance), centers - tolerance * centers,
                 centers + tolerance * centers]
            )
            edges = edges[edges != 0.0]
            votes = np.concatenate([centers, edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
            votes = rng.choice(votes, rng.integers(1, len(votes) + 1), replace=False)
            _vote_matches_brute_force(*exact_scale_problem(votes), ScaleConsensusConfig(tolerance))
    for tolerance in tolerances:  # long runs of one value, ties among their candidates
        for _ in range(5):
            values = np.concatenate([rng.uniform(0.5, 4.0, 4), np.round(rng.uniform(0.5, 4.0, 4), 1)])
            runs = np.repeat(values, rng.integers(1, 500, len(values)))
            votes = np.concatenate([runs, rng.uniform(-1.0, 10.0, rng.integers(0, 200))])
            _vote_matches_brute_force(*exact_scale_problem(rng.permutation(votes)), ScaleConsensusConfig(tolerance))


def test_scale_consensus_rejects_non_finite_estimates(rng):
    for bad in (np.inf, -np.inf, np.nan):
        estimates = np.concatenate([rng.normal(2.0, 0.05, 10), [bad]])
        with pytest.raises(InvalidParameterError):
            scale_consensus(*exact_scale_problem(estimates))


def test_scale_consensus_memory_stays_linear_in_the_voters(rng):
    # the band test of every candidate against every voter needs n x n arrays: 200 MB at n = 5000
    estimates = np.concatenate([rng.normal(2.0, 0.05, 2500), rng.uniform(0.1, 10.0, 2500)])
    problem = exact_scale_problem(estimates)
    tracemalloc.start()
    try:
        scale, support = scale_consensus(*problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
    assert support > 2500 and abs(scale - 2.0) < 0.01


def test_scale_consensus_noiseless_exactness(rng):
    # synthetic two-frame geometry: exact depth gives the exact metric scale
    for _ in range(20):
        rotation = random_rotation(rng, 30.0)
        t_hat = rng.standard_normal(3)
        t_hat /= np.linalg.norm(t_hat)
        scale_true = rng.uniform(0.3, 4.0)
        ref = rng.normal(0.0, 2.0, (25, 3)) + [0.0, 0.0, 6.0]
        query = ref @ rotation.T + scale_true * t_hat
        scale, support = scale_consensus(ref, query, rotation, t_hat)
        assert support == 25
        assert abs(scale - scale_true) < 1e-9


def test_scale_consensus_outlier_fraction_selection(rng):
    # under 50% outliers at tolerance 0.1 the true cluster must win
    hits = 0
    trials = 300
    for _ in range(trials):
        n_in = 14
        n_out = 11
        true_scale = rng.uniform(0.5, 5.0)
        estimates = np.concatenate(
            [
                true_scale * (1.0 + rng.uniform(-0.03, 0.03, n_in)),
                rng.uniform(0.05, 12.0, n_out),
            ]
        )
        ref, query, rotation, t_hat = make_scale_problem(rng, estimates)
        try:
            scale, _ = scale_consensus(ref, query, rotation, t_hat)
        except ScaleConsensusError:
            continue
        if abs(scale - true_scale) / true_scale < 0.05:
            hits += 1
    assert hits / trials >= 0.99
