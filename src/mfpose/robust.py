"""Hypothesize-and-verify engine and the depth-based translation-scale vote.

The engine is solver-agnostic and works a window of samples at a time: data
is any (n, d) array, the minimal solver maps a (K, m, d) stack of samples to
K lists of candidate models (an empty list for an unusable sample), and the
residual function maps (models, data) to an (M, n) array of non-negative
residuals, one row per model, which the loop only reads.  Scoring is MSAC
(truncated squared residual, squared and truncated in an array of the
loop's own); iteration count adapts to the observed inlier ratio.  After a
first window of _MIN_ITERATIONS samples, each window draws what the adaptive
stop still asks for, up to a bound that keeps the (models, n) score arrays
small.  Samples and models are consumed in draw order, so the result does
not depend on the window size, and everything is deterministic given the
seed.  EstimatorConfig is the one parameter object of the loop and the vote.

sampson_error, the essmat score, squares, sums, clamps, roots and divides
in place on the arrays it makes itself; it never writes its matrices or
its matches, and each call returns a new array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Sequence

import numpy as np

from .errors import InvalidParameterError, NoConsensusError, ScaleConsensusError, parameter_check

# Most samples drawn and solved at once.  Each solve and score call has a
# fixed cost that a wide window pays once; the samples it solves past the
# adaptive stop are the price.  Past _WINDOW_ROWS samples x data rows
# (n > 256) a window narrows, so that its (models, n) score arrays stay
# small, down to 16 samples (n >= 1024) and no further.
_WINDOW = 64
_WINDOW_ROWS = 2**14
# Most models x data rows scored by one `residuals` call, so that a window's
# score arrays stay small whatever its model count.  A window of up to 10
# models per sample (the five-point solver's most) is one call up to n = 1024.
_SCORE_ENTRIES = 10 * _WINDOW_ROWS
# Floor for the adaptive count: at 100% inliers the formula alone would
# stop after one sample, leaving an ill-conditioned hypothesis unbeaten.
_MIN_ITERATIONS = 10
# Fewest inliers a winning model needs; pnp's refinement needs 4 of them.
_MIN_INLIERS = 5


def _check_threshold(name: str, value: float) -> None:
    """Reject an inlier threshold that is not above 0 (NaN too) or whose square, which MSAC scoring uses, is not finite."""
    if not value > 0:
        raise InvalidParameterError(f"{name} must be positive")
    if not math.isfinite(float(value) * float(value)):
        raise InvalidParameterError(f"{name} must be finite, and so must its square")


@dataclass(frozen=True)
class EstimatorConfig:
    """Robust-loop and scale-vote parameters shared by the three estimators: `ransac` reads it directly."""

    max_iterations: int = 10000
    confidence: float = 0.9999
    rng_seed: int = 0
    # None -> 4 / (geometric mean of the four focal lengths), in normalized units
    sampson_threshold: float | None = None
    pnp_threshold_px: float = 3.0
    procrustes_threshold_m: float = 0.15
    scale_relative_tolerance: float = 0.1

    @parameter_check
    def __post_init__(self):
        """Check every value once, so a bad one fails before any query runs."""
        counts = (self.max_iterations, self.rng_seed)
        if not all(isinstance(count, (int, np.integer)) for count in counts) or self.rng_seed < 0:
            raise InvalidParameterError("max_iterations and rng_seed must be integers, rng_seed >= 0")
        if self.max_iterations < 1:
            raise InvalidParameterError("max_iterations must be >= 1")
        if not (0.0 < self.confidence < 1.0):
            raise InvalidParameterError("confidence must be in (0, 1)")
        if self.sampson_threshold is not None:  # a None Sampson threshold is derived from the intrinsics
            _check_threshold("sampson_threshold", self.sampson_threshold)
        _check_threshold("pnp_threshold_px", self.pnp_threshold_px)
        _check_threshold("procrustes_threshold_m", self.procrustes_threshold_m)
        if not (self.scale_relative_tolerance > 0 and math.isfinite(self.scale_relative_tolerance)):  # NaN fails too
            raise InvalidParameterError("scale_relative_tolerance must be positive and finite")


@dataclass
class RobustResult:
    model: Any
    inlier_mask: np.ndarray
    inlier_count: int
    score: float  # MSAC loss of the winning model (lower is better)
    iterations: int


def _samples_needed(inlier_ratio: float, sample_size: int, confidence: float) -> float:
    """Samples that draw one all-inlier sample with probability `confidence`; inf when that is too rare for a float."""
    miss = 1.0 - inlier_ratio**sample_size
    if miss <= 0.0:
        return 1
    if miss >= 1.0:
        return math.inf
    return math.ceil(math.log(1.0 - confidence) / math.log(miss))


def ransac(
    data: np.ndarray,
    solve: Callable[[np.ndarray], Sequence[Sequence[Any]]],
    residuals: Callable[[Sequence[Any], np.ndarray], np.ndarray],
    sample_size: int,
    threshold: float,
    config: EstimatorConfig,
    refit: Callable[[Any, np.ndarray], Any] | None = None,
) -> RobustResult:
    """Best model by MSAC score; raises NoConsensusError when support is too thin.

    A residual at most `threshold` marks an inlier; the iteration cap,
    confidence and rng_seed come from `config`.  A winning model with fewer
    than _MIN_INLIERS (5) inliers raises NoConsensusError.

    The first window draws _MIN_ITERATIONS (10) samples, all that a clean
    problem needs and the floor of the adaptive stop; each later one draws
    what the adaptive stop still asks for.  No window holds more than
    min(64, max(16, 2**14 // len(data))) samples.  Each sample is its own
    rng.choice call, in draw order; each window is solved by one `solve`
    call and its models scored by one `residuals` call per block of at most
    10 * 2**14 // len(data) models.  Models are then consumed in draw
    order, so `iterations` counts consumed samples and the result is
    bit-identical for a given rng_seed, whatever the window and block
    sizes.  Samples drawn past the adaptive stop are discarded.

    When `refit(model, inlier_data)` is given it is applied to the winning
    consensus set (up to two rounds); the refitted model is adopted only if
    its MSAC score does not regress, so the result never gets worse.  Like
    `solve`, `refit` handles its own failures (returning the model it was
    given, say); no exception is caught here.
    """
    _check_threshold("threshold", threshold)
    data = np.asarray(data)
    n = len(data)
    if n < sample_size:
        raise NoConsensusError(f"need at least {sample_size} items, got {n}")

    rng = np.random.default_rng(config.rng_seed)
    threshold_sq = threshold**2

    block = max(1, _SCORE_ENTRIES // n)

    def score(models):
        """MSAC losses (truncated squared residuals) and inlier masks, one row per model, `block` models a call."""
        losses, masks = [], []
        for start in range(0, len(models), block):
            rows = np.asarray(residuals(models[start : start + block], data), dtype=float)
            squares = np.square(rows)
            losses.append(np.minimum(squares, threshold_sq, out=squares).sum(axis=1))
            masks.append(rows <= threshold)
        return np.concatenate(losses), np.concatenate(masks)

    best_loss = np.inf
    best_model = None
    best_mask = None
    iteration_cap = config.max_iterations
    iteration = 0
    limit = min(_WINDOW, max(16, _WINDOW_ROWS // n))
    while iteration < iteration_cap:
        window = min(iteration_cap - iteration, limit, limit if iteration else _MIN_ITERATIONS)
        draws = [rng.choice(n, size=sample_size, replace=False) for _ in range(window)]
        model_lists = solve(data[np.array(draws)])
        models = [model for sample_models in model_lists for model in sample_models]
        if models:
            losses, masks = score(models)
        row = 0
        for sample_models in model_lists:
            iteration += 1
            for model in sample_models:
                loss = float(losses[row])
                if loss < best_loss:
                    best_loss, best_model, best_mask = loss, model, masks[row]
                    needed = _samples_needed(best_mask.mean(), sample_size, config.confidence)
                    iteration_cap = min(config.max_iterations, max(iteration, _MIN_ITERATIONS, needed))
                row += 1
            if iteration >= iteration_cap:
                break

    if best_model is None:
        raise NoConsensusError("no hypothesis could be scored")

    if refit is not None:
        for _ in range(2):
            if int(best_mask.sum()) < sample_size:
                break
            candidate = refit(best_model, data[best_mask])
            losses, masks = score([candidate])
            loss, mask = float(losses[0]), masks[0]
            if loss > best_loss:
                break
            changed = not np.array_equal(mask, best_mask)
            best_model, best_loss, best_mask = candidate, loss, mask
            if not changed:
                break

    count = int(best_mask.sum())
    if count < _MIN_INLIERS:
        raise NoConsensusError(f"best model has {count} inliers < {_MIN_INLIERS}")
    return RobustResult(best_model, best_mask, count, best_loss, iteration)


def _epipolar_rows(matches: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (3, n) homogeneous reference and query rays of (n, 4) matches, and the (9, n) rows of their Kronecker products."""
    ones = np.ones(len(matches))
    q_ref = np.stack([matches[:, 0], matches[:, 1], ones])
    q_query = np.stack([matches[:, 2], matches[:, 3], ones])
    return q_ref, q_query, (q_query[:, None] * q_ref).reshape(9, -1)


def _sampson_rows(stack: np.ndarray, rows: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """(M, n) Sampson distances of an (M, 3, 3) stack against the _epipolar_rows of n matches.

    Squares, sums, clamps, roots and divides in place on the products it
    makes itself; `stack` and `rows` are never written.  A denominator that
    is zero or NaN has no quotient: its distance is inf when the numerator
    is above zero and 0.0 otherwise, read from the numerator before the
    divide and written after it.
    """
    q_ref, q_query, kron = rows
    # q_query^T E q_ref = vec(E) . (q_query kron q_ref)
    products = stack.reshape(-1, 1, 9) @ kron
    numerator = np.abs(products, out=products)[:, 0]
    eq = stack[:, :2] @ q_ref  # (E q_ref)[:2]
    etq = np.swapaxes(stack, 1, 2)[:, :2] @ q_query  # (E^T q_query)[:2]
    np.square(eq, out=eq)
    np.square(etq, out=etq)
    denom = np.add(eq[:, 0], eq[:, 1], out=eq[:, 0])
    denom += etq[:, 0]
    denom += etq[:, 1]
    undefined = ~(denom > 0)
    fix = np.where(numerator[undefined] > 0, np.inf, 0.0)
    np.maximum(denom, 1e-300, out=denom)
    numerator /= np.sqrt(denom, out=denom)
    numerator[undefined] = fix
    return numerator


def sampson_error(e: np.ndarray, matches: np.ndarray) -> np.ndarray:
    """First-order geometric distance to the epipolar constraint, per match.

    e is one (3, 3) essential matrix or an (M, 3, 3) stack of them; matches
    is (n, 4) [x_ref, y_ref, x_query, y_query] in normalized coordinates.
    Returns (n,) or (M, n) distances; a single (4,) match with one matrix
    gives a float.  Zero exactly when the constraint holds; inf when the
    constraint fails where the denominator is zero or NaN.  Every model
    goes through its own (1, 9) @ (9, n) and (2, 3) @ (3, n) products, one
    matrix being a stack of one, so a row does not depend on the other
    models in its stack.  The result is a new array; e and matches are
    only read.
    """
    m = np.asarray(matches, dtype=float)
    single = m.ndim == 1
    m = m.reshape(-1, 4)
    e = np.asarray(e, dtype=float)
    out = _sampson_rows(e.reshape(-1, 3, 3), _epipolar_rows(m))
    out = out.reshape(e.shape[:-2] + (len(m),))
    return float(out[0]) if single else out


@dataclass(frozen=True)
class ScaleConsensusConfig:
    relative_tolerance: float = 0.1
    min_component: ClassVar[float] = 1e-4  # meters; guards tiny projections onto t_hat

    @parameter_check
    def __post_init__(self):
        if not (self.relative_tolerance > 0 and math.isfinite(self.relative_tolerance)):  # NaN fails too
            raise InvalidParameterError("relative_tolerance must be positive and finite")


def scale_consensus(
    ref_points: np.ndarray,
    query_points: np.ndarray,
    rotation: np.ndarray,
    t_hat: np.ndarray,
    config: ScaleConsensusConfig = ScaleConsensusConfig(),
) -> tuple[float, int]:
    """Metric translation scale by maximum consensus over per-match estimates.

    Each 3D-3D correspondence votes s_i = t_hat . (Xq_i - R @ Xr_i), where
    t_hat must be a unit vector.  Every estimate above min_component is a
    candidate cluster center c; its supporters are the estimates s with
    |s - c| <= relative_tolerance * c, as rounded in float64.  The center
    whose band holds the most estimates wins (ties: smaller mean absolute
    deviation, then smaller scale) and the returned scale is the mean of
    its supporters in ascending order.
    Raises ScaleConsensusError when no estimate is positive, and
    InvalidParameterError when an estimate is not finite.

    Sorted-run rule: the rounded difference s - c never decreases as s
    grows, so a candidate's supporters are one contiguous run of the sorted
    estimates.  searchsorted on c -/+ band finds each run's ends, the same
    <= test then moves each end past the values that round to the other
    side of the band edge, and the vote costs O(n log n).
    """
    ref_points = np.asarray(ref_points, dtype=float).reshape(-1, 3)
    query_points = np.asarray(query_points, dtype=float).reshape(-1, 3)
    estimates = (query_points - ref_points @ np.asarray(rotation, dtype=float).T) @ np.asarray(
        t_hat, dtype=float
    )
    if not np.all(np.isfinite(estimates)):
        raise InvalidParameterError("per-correspondence scale estimates must be finite")
    candidates = estimates[estimates > config.min_component]
    if len(candidates) == 0:
        raise ScaleConsensusError("all per-correspondence scale estimates are non-positive")

    ordered = np.sort(estimates)
    band = config.relative_tolerance * candidates
    lo = _run_end(ordered, candidates, band, upper=False)
    hi = _run_end(ordered, candidates, band, upper=True)
    counts = hi - lo  # each candidate supports itself
    best_count = counts.max()
    best = None
    # tied candidates with one count and one start share one supporter run
    for start in dict.fromkeys(lo[counts == best_count].tolist()):
        supporters = ordered[start : start + best_count]
        scale = float(np.mean(supporters))
        mad = float(np.mean(np.abs(supporters - scale)))
        key = (mad, scale)
        if best is None or key < best[0]:
            best = (key, scale)
    return best[1], int(best_count)


def _run_end(ordered: np.ndarray, centers: np.ndarray, band: np.ndarray, upper: bool) -> np.ndarray:
    """Per center, the index into the ascending `ordered` where its supporter run starts or (upper) ends.

    With c a run's center, an estimate s lies before the run while
    s - c < -band and before the run's upper end while s - c <= band, both
    as rounded; each test holds for a prefix of `ordered`, and the index
    returned is the first at which it fails.  searchsorted on c -/+ band
    guesses it; each correction steps over a whole run of equal values, and
    the guess is off by a few distinct values at most.
    """

    def before(index, which):
        offset = ordered[index] - centers[which]
        return offset <= band[which] if upper else offset < -band[which]

    if upper:
        ends = np.searchsorted(ordered, centers + band, "right")
    else:
        ends = np.searchsorted(ordered, centers - band, "left")
    down = np.flatnonzero(ends > 0)
    while len(down):
        down = down[~before(ends[down] - 1, down)]
        ends[down] = np.searchsorted(ordered, ordered[ends[down] - 1], "left")
        down = down[ends[down] > 0]
    up = np.flatnonzero(ends < len(ordered))
    while len(up):
        up = up[before(ends[up], up)]
        ends[up] = np.searchsorted(ordered, ordered[ends[up]], "right")
        up = up[ends[up] < len(ordered)]
    return ends
