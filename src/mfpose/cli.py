"""Command-line entry points for reproducible benchmark runs.

Subcommands: `estimate` runs one estimator over a dataset and writes one
line per query, `evaluate` scores an estimates file against ground truth,
`curves` emits a precision/ratio CSV, and `synth` generates synthetic
scenes.  Progress goes to stderr; machine output goes to files or stdout.

Exit codes: 0 success, 1 usage, 2 I/O or format error, 3 evaluation
mismatch.  Per-query estimation failures are encoded in the output status
column and never abort a run.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys
from dataclasses import fields, replace
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import itemgetter
from pathlib import Path

from .dataset import (
    SceneManifest,
    SyntheticSceneConfig,
    format_estimate_line,
    list_scenes,
    load_scene,
    parse_estimates,
    synth_scene,
    synth_write,
)
from .errors import FormatError, InvalidParameterError, MfposeError, MissingGroundTruthError
from .evaluation import (
    PER_SCENE_FIELDS,
    EvaluationRecord,
    Thresholds,
    aggregate_report,
    precision_curve,
    score_queries,
)
from .pipelines import ESTIMATOR_NAMES, EstimatorConfig, run_estimator

DEFAULT_SEED = 0
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_MISMATCH = 3
# Each `curves --acceptance` choice, with the name of the report curve it writes.
_CURVE_ACCEPTANCE = dict(zip(("vcre-0.05", "vcre-0.10", "pose"), Thresholds().selectors()))


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def derive_seed(global_seed: int, scene_id: str, query_id: str) -> int:
    """Stable per-query seed, independent of machine, run order and scene selection."""
    digest = hashlib.blake2s(
        f"{global_seed}/{scene_id}/{query_id}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") >> 1


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _read_json(path) -> dict:
    """The JSON object in a config file; anything else is a FormatError."""
    try:
        value = json.loads(Path(path).read_text())
    except OSError as exc:
        raise FormatError(path, f"cannot read config: {exc}") from exc
    except ValueError as exc:
        raise FormatError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise FormatError(path, f"expected a JSON object, got {type(value).__name__}")
    return value


def _select_scenes(dataset: Path, scene_filter: str) -> list[str]:
    available = list_scenes(dataset)
    wanted = [s for s in scene_filter.split(",") if s]
    if scene_filter == "all" or not wanted:
        return available
    missing = sorted(set(wanted) - set(available))
    if missing:
        raise FormatError(dataset, f"scenes not found: {', '.join(missing)}")
    return sorted(set(wanted))  # a scene named twice is estimated once


def cmd_estimate(args) -> int:
    """Estimate every query serially, in canonical (scene, query) order."""
    dataset = Path(args.dataset)
    # each estimator flag's dest is the field it sets; each query's rng_seed is derived below
    options = {f.name: getattr(args, f.name) for f in fields(EstimatorConfig) if f.name != "rng_seed"}
    estimator_config = EstimatorConfig(**options)
    scenes = [load_scene(dataset, scene_id) for scene_id in _select_scenes(dataset, args.scenes)]
    _log(f"estimating {sum(len(m.queries) for m in scenes)} queries from {len(scenes)} scenes")
    lines = []
    for manifest in scenes:
        depth_ref = manifest.load_depth(manifest.reference)
        k_ref = manifest.intrinsics[manifest.reference]
        for query in manifest.queries:
            cfg = replace(estimator_config, rng_seed=derive_seed(args.seed, manifest.scene_id, query))
            estimate = run_estimator(
                args.estimator,
                manifest.load_matches(query),
                depth_ref,
                None if args.estimator == "pnp" else manifest.load_depth(query),  # pnp reads no query depth
                k_ref,
                manifest.intrinsics[query],
                cfg,
            )
            lines.append(format_estimate_line(manifest.scene_id, query, estimate))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + ("\n" if lines else ""))
    _log(f"wrote {len(lines)} estimates to {out}")
    return EXIT_OK


def _records_from_estimates(estimates_path: Path, dataset: Path) -> list[EvaluationRecord]:
    manifests: dict[str, SceneManifest] = {}
    unmatched = []
    causes: dict[str, str] = {}  # why a scene's ground truth could not be loaded
    rows = []
    for scene_id, query_id, estimate in parse_estimates(estimates_path):
        if scene_id in causes:
            unmatched.append(f"{scene_id}/{query_id}")
            continue
        if scene_id not in manifests:
            try:
                manifests[scene_id] = load_scene(dataset, scene_id)
            except FormatError as exc:
                causes[scene_id] = str(exc)
                unmatched.append(f"{scene_id}/{query_id}")
                continue
        manifest = manifests[scene_id]
        if query_id not in manifest.queries or not manifest.has_ground_truth:
            unmatched.append(f"{scene_id}/{query_id}")
            continue
        rows.append((scene_id, query_id, estimate, manifest.poses[query_id], manifest.intrinsics[query_id]))
    if unmatched:
        because = "".join(f"; {causes[scene_id]}" for scene_id in sorted(causes))
        raise MissingGroundTruthError(
            estimates_path, "queries without ground truth: " + ", ".join(sorted(unmatched)) + because
        )
    return score_queries(rows)


def _json_text(value) -> str:
    """The text of `json.dumps(value, indent=2, sort_keys=True)`, written without the slow pure-Python encoder.

    Setting `indent` makes the standard library take that encoder.
    Non-empty dicts and lists, strings, floats, ints, bools and None are
    written here; any other value goes through `json.dumps` itself.  A list
    of at least `_COLUMN_ROWS` dicts that share one non-empty set of string
    keys (curve points, CDF entries, per-scene rows) is written column by
    column.
    """
    parts: list[str] = []
    _json_parts(value, parts, "\n")
    return "".join(parts)


_SCALARS = frozenset((float, int, bool, type(None)))  # json.dumps writes these without indent or separator
# Below this many rows, setting up the columns costs more than writing each row does.
_COLUMN_ROWS = 32


def _json_column(column: list, newline: str) -> list[str]:
    """The text of each value of a column: all scalars from one `json.dumps` call, else each on its own."""
    if _SCALARS.issuperset(map(type, column)):
        return json.dumps(column)[1:-1].split(", ")  # no scalar's text holds ", "
    texts = []
    for v in column:
        parts: list[str] = []
        _json_parts(v, parts, newline)
        texts.append("".join(parts))
    return texts


def _json_rows(rows: list, newline: str) -> str | None:
    """The text of a long list of dicts that share one non-empty set of string keys, or None for any other list."""
    keys = rows[0].keys() if len(rows) >= _COLUMN_ROWS and type(rows[0]) is dict else ()
    if not keys or not all(type(k) is str for k in keys):
        return None
    if set(map(type, rows)) != {dict} or not all(map(keys.__eq__, map(dict.keys, rows))):
        return None
    inner = newline + "  "
    field = inner + "  "
    names = sorted(keys)
    entries = (encode_basestring_ascii(k).replace("{", "{{").replace("}", "}}") + ": {}" for k in names)
    template = "{{" + field + f",{field}".join(entries) + inner + "}}"
    columns = [_json_column(list(map(itemgetter(k), rows)), field) for k in names]
    return "[" + inner + f",{inner}".join(map(template.format, *columns)) + newline + "]"


def _json_parts(value, parts: list[str], newline: str) -> None:
    kind = type(value)
    if kind is float:
        if isfinite(value):
            parts.append(repr(value))
        else:
            parts.append("NaN" if value != value else "Infinity" if value > 0 else "-Infinity")
    elif kind is str:
        parts.append(encode_basestring_ascii(value))
    elif kind is int:
        parts.append(repr(value))
    elif value is None or kind is bool:
        parts.append("null" if value is None else "true" if value else "false")
    elif kind is dict and value:
        inner = newline + "  "
        start = len(parts)
        try:
            separator = "{" + inner
            for key in sorted(value):
                parts += (separator, encode_basestring_ascii(key), ": ")
                _json_parts(value[key], parts, inner)
                separator = "," + inner
        except TypeError:  # a key that is not a string: json.dumps converts or rejects it
            del parts[start:]
            parts.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))
            return
        parts.append(newline + "}")
    elif (kind is list or kind is tuple) and value:
        rows = _json_rows(value, newline)
        if rows is not None:
            parts.append(rows)
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _json_parts(item, parts, inner)
            separator = "," + inner
        parts.append(newline + "]")
    else:
        parts.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))


def cmd_evaluate(args) -> int:
    thresholds = Thresholds(**{f.name: getattr(args, f.name) for f in fields(Thresholds)})
    records = _records_from_estimates(Path(args.estimates), Path(args.dataset))
    report = aggregate_report(
        records,
        thresholds,
        meta={"estimator": args.estimator_name, "seed": args.seed, "estimates": str(args.estimates)},
    )
    for name, rate in report["summary"]["acceptance"].items():
        print(f"acceptance {name}: {rate:.6f}")
    if args.out_json:
        Path(args.out_json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out_json).write_text(_json_text(report) + "\n")
        _log(f"wrote report to {args.out_json}")
    if args.out_csv:
        path = Path(args.out_csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, PER_SCENE_FIELDS)
            writer.writeheader()
            writer.writerows(report["per_scene"])
        _log(f"wrote per-scene CSV to {args.out_csv}")
    return EXIT_OK


def cmd_curves(args) -> int:
    acceptable = Thresholds().selectors()[_CURVE_ACCEPTANCE[args.acceptance]]
    records = _records_from_estimates(Path(args.estimates), Path(args.dataset))
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["confidence_threshold", "estimate_ratio", "precision"])
        if records:
            for point in precision_curve(records, acceptable):
                writer.writerow(
                    [point.confidence_threshold, point.estimate_ratio,
                     "" if point.precision is None else point.precision]
                )
    _log(f"wrote curve to {path}")
    return EXIT_OK


def cmd_synth(args) -> int:
    options = _read_json(args.config)
    num_scenes = options.pop("num_scenes", 1)
    prefix = options.pop("scene_prefix", "scene")
    seed = options.pop("rng_seed", DEFAULT_SEED)  # any integer: each scene's seed is derived from it
    if type(num_scenes) is not int or num_scenes < 0:
        raise FormatError(args.config, f"option 'num_scenes' must be an integer >= 0, got {num_scenes!r}")
    if type(seed) is not int:
        raise FormatError(args.config, f"option 'rng_seed' must be an integer, got {seed!r}")
    if not isinstance(prefix, str) or ".." in prefix or "/" in prefix or "\\" in prefix:  # scenes stay under --out
        raise FormatError(args.config, f"option 'scene_prefix' must be a string without '/', '\\' or '..', got {prefix!r}")
    unknown = options.keys() - {f.name for f in fields(SyntheticSceneConfig)}
    if unknown:
        raise FormatError(args.config, f"unknown option {min(unknown)!r}")
    try:
        config = SyntheticSceneConfig(**options)
    except InvalidParameterError as exc:
        raise FormatError(args.config, str(exc)) from exc
    root = Path(args.out)
    total_queries = 0
    for index in range(num_scenes):
        scene_id = f"{prefix}{index:04d}"
        scene = synth_scene(replace(config, rng_seed=derive_seed(seed, scene_id, "gen")))
        synth_write(scene, root, scene_id)
        total_queries += len(scene.queries)
        counts = [len(q.correspondences) for q in scene.queries]
        _log(f"{scene_id}: {len(scene.queries)} queries, matches per query {counts}")
    _log(f"generated {num_scenes} scenes / {total_queries} queries under {root}")
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Exits 1 on usage errors, not argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> tuple[_Parser, _Parser]:
    """The `mfpose` parser and its `estimate` subparser, whose defaults `--config` sets."""
    parser = _Parser(prog="mfpose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run an estimator over a dataset")
    est.set_defaults(handler=cmd_estimate)
    est.add_argument("--dataset", required=True)
    est.add_argument("--scenes", default="all", help="comma-separated scene ids or 'all'")
    est.add_argument("--estimator", default="essmat-dscale", choices=ESTIMATOR_NAMES)
    est.add_argument("--seed", type=int, default=DEFAULT_SEED)
    est.add_argument("--out", required=True)
    est.add_argument("--max-iterations", type=int, default=EstimatorConfig.max_iterations)
    est.add_argument("--ransac-confidence", dest="confidence", type=float, default=EstimatorConfig.confidence)
    est.add_argument("--min-inliers", type=int, default=EstimatorConfig.min_inliers)
    est.add_argument("--sampson-threshold", type=float, default=EstimatorConfig.sampson_threshold,
                     help="normalized units; default 4/geometric-mean focal")
    est.add_argument("--pnp-threshold-px", type=float, default=EstimatorConfig.pnp_threshold_px)
    est.add_argument("--procrustes-threshold-m", type=float,
                     default=EstimatorConfig.procrustes_threshold_m)
    est.add_argument("--scale-tolerance", dest="scale_relative_tolerance", type=float,
                     default=EstimatorConfig.scale_relative_tolerance)
    est.add_argument("--config", default=None, help="JSON file of defaults for these options")

    ev = sub.add_parser("evaluate", help="score an estimates file against ground truth")
    ev.set_defaults(handler=cmd_evaluate)
    ev.add_argument("--estimates", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--threshold-vcre", dest="vcre_fractions", type=float, nargs="+",
                    default=Thresholds.vcre_fractions, help="fractions of the image diagonal")
    ev.add_argument("--threshold-pose-m", dest="pose_translation_m", type=float, default=Thresholds.pose_translation_m)
    ev.add_argument("--threshold-pose-deg", dest="pose_rotation_deg", type=float, default=Thresholds.pose_rotation_deg)
    ev.add_argument("--estimator-name", default="unknown", help="recorded in report meta")
    ev.add_argument("--seed", type=int, default=DEFAULT_SEED, help="recorded in report meta")
    ev.add_argument("--out-json", default=None)
    ev.add_argument("--out-csv", default=None)

    cv = sub.add_parser("curves", help="emit a precision/ratio CSV")
    cv.set_defaults(handler=cmd_curves)
    cv.add_argument("--estimates", required=True)
    cv.add_argument("--dataset", required=True)
    cv.add_argument("--acceptance", default="vcre-0.10", choices=list(_CURVE_ACCEPTANCE))
    cv.add_argument("--out", required=True)

    sy = sub.add_parser("synth", help="generate synthetic scenes with ground truth")
    sy.set_defaults(handler=cmd_synth)
    sy.add_argument("--config", required=True, help="JSON generator configuration")
    sy.add_argument("--out", required=True, help="dataset root to create")
    return parser, est


# Built on the first `main` call and shared by every later one, so nothing may change it after it is built.
_shared_parser = functools.cache(build_parser)


def _config_defaults(estimate: _Parser, path) -> dict:
    """`estimate --config` values as defaults keyed by dest, converted and checked like the flag's own."""
    defaults = {}
    for key, value in _read_json(path).items():
        # a key is a flag's name, not its dest: `max-iterations` or `max_iterations` for `--max-iterations`
        action = estimate._option_string_actions.get("--" + key.replace("_", "-"))
        if action is None or action.default is argparse.SUPPRESS:  # --help holds no value
            raise FormatError(path, f"unknown option {key!r}")
        if action.required or action.dest == "config":  # a default never reaches these
            raise FormatError(path, f"option {key!r} can only be given on the command line")
        if value is None:
            continue
        if isinstance(value, (bool, list, dict)):
            raise FormatError(path, f"option {key!r} must be a string or a number, got {value!r}")
        try:
            converted = (action.type or str)(str(value))
        except ValueError as exc:
            raise FormatError(path, f"option {key!r}: invalid value {value!r}") from exc
        if action.choices is not None and converted not in action.choices:
            raise FormatError(path, f"option {key!r} must be one of {', '.join(action.choices)}")
        defaults[action.dest] = converted
    return defaults


def main(argv=None) -> int:
    parser, estimate = _shared_parser()
    args = parser.parse_args(argv)
    try:
        if args.handler is cmd_estimate and args.config is not None:
            # the file's defaults go on a fresh pair, so they stay with this call;
            # explicit flags, abbreviated or not, win over them
            parser, estimate = build_parser()
            estimate.set_defaults(**_config_defaults(estimate, args.config))
            args = parser.parse_args(argv)
        return args.handler(args)
    except MissingGroundTruthError as exc:
        _log(str(exc))
        return EXIT_MISMATCH
    except (MfposeError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
