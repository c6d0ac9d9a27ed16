"""Experiment sweeps: YAML configuration parsing, cartesian expansion,
resumable result tables, and plottable series extraction.

A sweep file holds a ``base`` mapping of RunConfig fields, the seed among
them, plus an ``axes`` mapping of field name to value list; the cartesian
product of the axes is enumerated in a deterministic order, and every point
is checked before any point runs.  A run's one record is its result row
(`result_row`): every RunConfig field, then every MetricsReport field, whose
``config_key`` identifies the point.  A row has one serialization, a JSON
object on one line, which round-trips every value with its type.  A sweep
appends one line per completed point to ``results.jsonl``, so re-running it
skips finished points; it refuses a directory whose row for a point's key
holds another seed.  A figure's series split the selected rows by every
field but the x axis that varies among them.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from pathlib import Path

import yaml

from .engine import MetricsReport, RunConfig, run
from .phy import ConfigurationError

_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_SWEEP_KEYS = {"base", "axes", "output", "workers"}


def _integer(name: str, value) -> int:
    """An integer from YAML or a command-line string: 2.0 is 2, 2.5 an error."""
    fractional = isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, bool) or fractional):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"field {name!r} expects an integer, got {value!r}")


def _coerce(name: str, value):
    """A RunConfig field value from YAML or a command-line string."""
    if name not in _FIELDS:
        raise ConfigurationError(f"unknown configuration field {name!r}")
    target = _FIELDS[name].type
    if target == "int":
        return _integer(name, value)
    if target == "float" and not isinstance(value, bool):  # RunConfig rejects a bool
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigurationError(f"field {name!r} expects float, got {value!r}") from None
    if target == "str" and not isinstance(value, str):
        raise ConfigurationError(f"field {name!r} expects a string")
    return value


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """A validated sweep: base configuration plus axis value lists."""

    base: dict
    axes: dict[str, tuple]
    output: str = "results"
    workers: int = 1

    def __post_init__(self) -> None:
        # checked here, so that a spec rebuilt with `dataclasses.replace`
        # (the CLI's overrides) is checked as a parsed one is
        both = sorted(set(self.base) & set(self.axes))
        if both:
            raise ConfigurationError(f"{both[0]!r} appears in both base and axes")
        if not isinstance(self.output, str):
            raise ConfigurationError(f"output must be a string, got {self.output!r}")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be at least 1, got {self.workers}")

    def points(self) -> list[RunConfig]:
        """Deterministic cartesian expansion of the axes over the base.

        Results and resumption are keyed by `RunConfig.key()`, so two points
        with one key are rejected: their rows could not be told apart.  The
        key covers every field but the seed, so this happens for a seed axis,
        equal configurations (an axis ``[10, 10.0]``) or a checksum collision.
        """
        names = sorted(self.axes)
        out = []
        keys = set()
        for combo in itertools.product(*(self.axes[n] for n in names)):
            fields = dict(self.base)
            fields.update(dict(zip(names, combo)))
            cfg = RunConfig(**fields)
            key = cfg.key()
            if key in keys:
                raise ConfigurationError(f"two sweep points share the configuration key {key!r}")
            keys.add(key)
            out.append(cfg)
        return out


def spec_from_mapping(doc: dict) -> ExperimentSpec:
    if not isinstance(doc, dict):
        raise ConfigurationError("sweep document must be a mapping")
    unknown = set(doc) - _SWEEP_KEYS
    if unknown:
        raise ConfigurationError(f"unknown sweep keys: {sorted(unknown)}")
    # an absent or null base or axes is empty; anything else must be a mapping
    base_doc, axes_doc = ({} if doc.get(name) is None else doc[name] for name in ("base", "axes"))
    for name, part in (("base", base_doc), ("axes", axes_doc)):
        if not isinstance(part, dict):
            raise ConfigurationError(
                f"{name} must be a mapping of configuration fields, got {type(part).__name__}")
    base = {name: _coerce(name, value) for name, value in base_doc.items()}
    axes = {}
    for name, values in axes_doc.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigurationError(f"axis {name!r} must be a non-empty list")
        axes[name] = tuple(_coerce(name, v) for v in values)
    return ExperimentSpec(
        base=base,
        axes=axes,
        output=doc.get("output", "results"),
        workers=_integer("workers", doc.get("workers", 1)),
    )


@contextmanager
def _cannot(action: str, path: str | Path):
    """Turn a file that cannot be opened, decoded or created into a
    ConfigurationError naming the action and the file."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise ConfigurationError(f"cannot {action} {path}: {reason}") from None


def output_dir(path: str | Path) -> Path:
    """The directory at path, created if it does not exist; a path that
    cannot be a directory, such as an existing file, is a
    ConfigurationError."""
    out = Path(path)
    with _cannot("create directory", out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def load_yaml(path: str | Path):
    """A YAML document; one that cannot be read or parsed is a
    ConfigurationError."""
    with _cannot("read", path), open(path) as fh:
        try:
            return yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{path}: not valid YAML ({exc})") from None


def parse_spec(path: str | Path) -> ExperimentSpec:
    return spec_from_mapping(load_yaml(path))


def _result_fieldnames() -> list[str]:
    return [f.name for f in (*dataclasses.fields(RunConfig), *dataclasses.fields(MetricsReport))]


def result_row(cfg: RunConfig, report: MetricsReport) -> dict:
    """A run's record: its configuration's fields, then its report's, in
    `_result_fieldnames()` order."""
    return {**dataclasses.asdict(cfg), **dataclasses.asdict(report)}


def _resume_state(table: Path, points: list[RunConfig]) -> set[str]:
    """The keys of the points a sweep's output table completed.  A table
    that `read_results` refuses, or a row for a point's key at another seed,
    is a ConfigurationError, raised before the table is touched."""
    try:
        seeds = ({row["config_key"]: row["seed"] for row in read_results(table)}
                 if table.exists() else {})
        for cfg in points:
            if seeds.get(cfg.key(), cfg.seed) != cfg.seed:
                raise ValueError(f"{table.name} holds {cfg.key()} at seed "
                                 f"{seeds[cfg.key()]}, not at the sweep's seed {cfg.seed}")
    except (OSError, ValueError) as exc:   # ConfigurationError too
        raise ConfigurationError(f"cannot resume {table.parent}: {exc}") from None
    return set(seeds)


def run_sweep(spec: ExperimentSpec, out_dir: str | Path, progress=None) -> Path:
    """Execute every pending sweep point; returns the table's path.

    An invalid point, an output path that cannot be a directory, or an
    output directory that `_resume_state` refuses (a point's row at another
    seed, say) raises `ConfigurationError` before any point runs.  Completed
    points (config keys already present in the table) are skipped, so an
    interrupted sweep resumes where it stopped.
    """
    points = spec.points()
    out = Path(out_dir)
    table = out / "results.jsonl"
    done = _resume_state(table, points)
    output_dir(out)
    points = [p for p in points if p.key() not in done]
    parallel = spec.workers > 1 and len(points) > 1
    with (ProcessPoolExecutor(spec.workers) if parallel else nullcontext()) as pool, \
            open(table, "a") as fh:
        for cfg, report in zip(points, (pool.map if parallel else map)(run, points)):
            fh.write(json.dumps(result_row(cfg, report)) + "\n")
            fh.flush()
            if progress:
                progress(report)
    return table


def read_results(table: str | Path) -> list[dict]:
    """The result rows of a table, one JSON object a line, typed as
    `result_row` made them.  A table that cannot be read, or a line that is
    not JSON or does not hold exactly a result row's columns in their order,
    is a ConfigurationError naming the file and the line."""
    columns, name = _result_fieldnames(), Path(table).name
    rows = []
    with _cannot("read", table), open(table) as fh:
        for n, line in enumerate(fh, 1):
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise ConfigurationError(f"{name} line {n} is not JSON: {exc}") from None
            keys = list(row) if isinstance(row, dict) else []
            if keys != columns:
                raise ConfigurationError(
                    f"{name} line {n} does not hold a result row's columns in order: "
                    f"missing {[c for c in columns if c not in keys]}, "
                    f"unexpected {[c for c in keys if c not in columns]}")
            rows.append(row)
    return rows


# -- figure extraction -------------------------------------------------------------
#
# Each known figure id maps result rows onto (x, y) series files for external
# plotting: ``sel`` filters rows, every RunConfig field but ``x`` that varies
# among them splits them into series, each y-column one file per series.

_FIG_PLANS = {
    "fig3": dict(x="density_veh_km_lane", y=("mean_ms",), sel=dict(dl_cast="unicast")),
    "fig4": dict(x="density_veh_km_lane", y=("mean_ms",), sel=dict(dl_cast="broadcast")),
    "fig5": dict(x="bandwidth_mhz", y=("mean_ms",), sel=dict()),
    "fig7": dict(x="density_veh_km_lane", y=("mean_ms", "util_dl"), sel=dict(mcs_table="LEP")),
    "fig8": dict(x="density_veh_km_lane", y=("mean_ms", "p90_ms"), sel=dict(mcs_table="LEP")),
    "fig12": dict(x="density_veh_km_lane", y=("mean_ms",), sel=dict()),
}


def emit_figure_data(table: str | Path, figure_id: str,
                     out_dir: str | Path) -> list[Path]:
    """Write per-series (x, y) files for one figure's axes, a series per
    combination of values of the varying fields, named by them in field order."""
    if figure_id not in _FIG_PLANS:
        raise ConfigurationError(
            f"unknown figure id {figure_id!r}; known: {sorted(_FIG_PLANS)}"
        )
    plan = _FIG_PLANS[figure_id]
    rows = [r for r in read_results(table) if all(r[k] == v for k, v in plan["sel"].items())]
    if not rows:
        raise ConfigurationError(f"no rows in {table} match {figure_id}")
    group = [f for f in _FIELDS if f != plan["x"] and len({r[f] for r in rows}) > 1]
    out = output_dir(out_dir)
    series: dict[tuple, list] = {}
    for row in rows:
        key = tuple(row[g] for g in group)
        series.setdefault(key, []).append(row)
    written = []
    for key, members in sorted(series.items(), key=lambda kv: [str(k) for k in kv[0]]):
        members.sort(key=lambda r: r[plan["x"]])
        label = [f"{v:g}" if isinstance(v, float) else str(v) for v in key]
        for column in plan["y"]:
            path = out / f"{'_'.join([figure_id, *label, column])}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([plan["x"], column])
                for r in members:
                    writer.writerow([r[plan["x"]], r[column]])
            written.append(path)
    return written
