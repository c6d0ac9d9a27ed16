"""Experiment sweeps: YAML configuration parsing, cartesian expansion,
resumable CSV results, and plottable series extraction.

A sweep file holds a ``base`` mapping of RunConfig fields plus an ``axes``
mapping of field name to value list; the cartesian product of the axes is
enumerated in a deterministic order, and every point is checked before
any point runs.  Every completed point writes one CSV row: every RunConfig
field of the point, then every MetricsReport field, whose ``config_key``
identifies the point, so re-running a sweep skips finished points.  A JSON
sidecar records the code version and the sweep specification of the last
invocation.
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

from . import __version__
from .engine import MetricsReport, RunConfig, run
from .phy import ConfigurationError

_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
_SWEEP_KEYS = {"base", "axes", "seed", "output", "workers"}


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
    seed: int = 0
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
        key covers every field but the seed, so this happens only for equal
        configurations (an axis ``[10, 10.0]``) or a checksum collision.
        """
        names = sorted(self.axes)
        out = []
        keys = set()
        for combo in itertools.product(*(self.axes[n] for n in names)):
            fields = dict(self.base)
            fields.update(dict(zip(names, combo)))
            fields.setdefault("seed", self.seed)
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
        seed=_integer("seed", doc.get("seed", 0)),
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


def _resume_state(csv_path: Path, sidecar_path: Path) -> tuple[set[str], bool]:
    """What a sweep's output directory holds: the keys of the points it
    completed, and whether its table still needs a header.  A table without
    exactly the sweep table's columns, or a sidecar that is not a JSON
    mapping, is a ConfigurationError, raised before either file is touched."""
    try:
        done, fieldnames = set(), None
        if csv_path.exists():
            with open(csv_path, newline="") as fh:
                reader = csv.DictReader(fh)
                fieldnames, columns = reader.fieldnames, _result_fieldnames()
                if fieldnames not in (None, columns):
                    raise ValueError(
                        f"{csv_path.name} does not have the columns of a sweep table: "
                        f"missing {[c for c in columns if c not in fieldnames]}, "
                        f"unexpected {[c for c in fieldnames if c not in columns]}")
                done = {row["config_key"] for row in reader}
        if sidecar_path.exists() and not isinstance(json.loads(sidecar_path.read_text()), dict):
            raise ValueError(f"{sidecar_path.name} is not a mapping")
    except (OSError, ValueError) as exc:   # JSONDecodeError, UnicodeDecodeError too
        raise ConfigurationError(f"cannot resume {csv_path.parent}: {exc}") from None
    return done, fieldnames is None


def run_sweep(spec: ExperimentSpec, out_dir: str | Path, progress=None) -> Path:
    """Execute every pending sweep point; returns the CSV path.

    An invalid point, an output path that cannot be a directory, or an
    output directory that `_resume_state` refuses raises
    `ConfigurationError` before any point runs.  Completed
    points (config keys already present in the CSV) are skipped, so an
    interrupted sweep resumes where it stopped.  The sidecar is replaced
    atomically, so a reader sees the old one or the new one.
    """
    points = spec.points()
    out = Path(out_dir)
    csv_path = out / "results.csv"
    sidecar_path = out / "results.meta.json"
    done, new_file = _resume_state(csv_path, sidecar_path)
    output_dir(out)
    points = [p for p in points if p.key() not in done]
    tmp = sidecar_path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"version": __version__, "spec": dataclasses.asdict(spec)},
                              indent=1, sort_keys=True))
    tmp.replace(sidecar_path)
    parallel = spec.workers > 1 and len(points) > 1
    with (ProcessPoolExecutor(spec.workers) if parallel else nullcontext()) as pool, \
            open(csv_path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_result_fieldnames())
        if new_file:
            writer.writeheader()
        for cfg, report in zip(points, (pool.map if parallel else map)(run, points)):
            writer.writerow({**dataclasses.asdict(cfg), **report.to_row()})
            fh.flush()
            if progress:
                progress(report)
    return csv_path


def read_results(csv_path: str | Path) -> list[dict]:
    """Result rows with numeric columns parsed back to floats; a table that
    cannot be read is a ConfigurationError."""
    with _cannot("read", csv_path), open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for k, v in row.items():
            try:
                row[k] = float(v)
            except (TypeError, ValueError):
                pass
    return rows


# -- figure extraction -------------------------------------------------------------
#
# Each known figure id maps result rows onto (x, y) series files for external
# plotting: ``sel`` filters rows, ``group`` splits them into series, and each
# y-column becomes one file per series.

_FIG_PLANS = {
    "fig3": dict(x="density_veh_km_lane", group=("mcs_table", "interval_ms", "unicast_m"),
                 y=("mean_ms",), sel=dict(dl_cast="unicast")),
    "fig4": dict(x="density_veh_km_lane", group=("mcs_table", "interval_ms"),
                 y=("mean_ms",), sel=dict(dl_cast="broadcast")),
    "fig5": dict(x="bandwidth_mhz", group=("mcs_table", "dl_cast", "unicast_m"),
                 y=("mean_ms",), sel=dict()),
    "fig7": dict(x="density_veh_km_lane", group=("scs_khz", "slot_type"),
                 y=("mean_ms", "util_dl"), sel=dict(mcs_table="LEP")),
    "fig8": dict(x="density_veh_km_lane", group=("scs_khz", "slot_type"),
                 y=("mean_ms", "p90_ms"), sel=dict(mcs_table="LEP")),
    "fig12": dict(x="density_veh_km_lane", group=("control_variant", "scheduling"),
                  y=("mean_ms",), sel=dict()),
}


def emit_figure_data(csv_path: str | Path, figure_id: str,
                     out_dir: str | Path) -> list[Path]:
    """Write per-series (x, y) files for one figure's axes."""
    if figure_id not in _FIG_PLANS:
        raise ConfigurationError(
            f"unknown figure id {figure_id!r}; known: {sorted(_FIG_PLANS)}"
        )
    plan = _FIG_PLANS[figure_id]
    rows = [
        r for r in read_results(csv_path)
        if all(str(r.get(k)) == str(v) or r.get(k) == v for k, v in plan["sel"].items())
    ]
    if not rows:
        raise ConfigurationError(f"no rows in {csv_path} match {figure_id}")
    missing = [c for c in (plan["x"], *plan["group"], *plan["y"]) if c not in rows[0]]
    if missing:
        raise ConfigurationError(f"result table lacks columns {missing}")
    out = output_dir(out_dir)
    series: dict[tuple, list] = {}
    for row in rows:
        key = tuple(row[g] for g in plan["group"])
        series.setdefault(key, []).append(row)
    written = []
    for key, members in sorted(series.items(), key=lambda kv: [str(k) for k in kv[0]]):
        members.sort(key=lambda r: float(r[plan["x"]]))
        label = "_".join(f"{v:g}" if isinstance(v, float) else str(v) for v in key)
        for column in plan["y"]:
            path = out / f"{figure_id}_{label}_{column}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([plan["x"], column])
                for r in members:
                    writer.writerow([r[plan["x"]], r[column]])
            written.append(path)
    return written
