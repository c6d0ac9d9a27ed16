import csv
import dataclasses
import json

import pytest
import yaml

from nrv2x import cli
from nrv2x import experiment
from nrv2x.engine import MetricsReport, RunConfig
from nrv2x.experiment import (ExperimentSpec, _coerce, emit_figure_data, parse_spec,
                              read_results, run_sweep, spec_from_mapping)
from nrv2x.phy import ConfigurationError

FAST_BASE = dict(horizon_ms=400.0, warmup_ms=100.0,
                 min_replications=2, max_replications=2)


def write_spec(tmp_path, doc):
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def write_input(path, content):
    """Put text or bytes at path; None leaves no file there."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    return path


# an input file that does not exist, and one that is not UTF-8 text
UNREADABLE = [(None, "No such file or directory"), (b"\xff\xfe", "can't decode")]


def test_parse_minimal_spec(tmp_path):
    path = write_spec(tmp_path, {"base": {"density_veh_km_lane": 10}})
    spec = parse_spec(path)
    assert spec.points()[0].density_veh_km_lane == 10


def test_parse_roundtrip(tmp_path):
    doc = {"base": dict(FAST_BASE), "axes": {"density_veh_km_lane": [10, 20]},
           "seed": 7, "output": "out", "workers": 2}
    spec = parse_spec(write_spec(tmp_path, doc))
    again = spec_from_mapping(dataclasses.asdict(spec))
    assert again == spec


def test_unknown_keys_are_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        parse_spec(write_spec(tmp_path, {"base": {"speed_of_light": 3e8}}))
    with pytest.raises(ConfigurationError):
        parse_spec(write_spec(tmp_path, {"bases": {}}))
    with pytest.raises(ConfigurationError):
        spec_from_mapping({"base": {"density_veh_km_lane": 10},
                           "axes": {"density_veh_km_lane": [20]}})


def test_invalid_combinations_rejected():
    # repetition count outside the allowed set
    with pytest.raises(ConfigurationError):
        ExperimentSpec(base={"retransmission": "k_repetitions", "k": 3},
                       axes={}).points()
    # unsupported SCS values fail at numerology lookup
    with pytest.raises(ConfigurationError):
        ExperimentSpec(base={}, axes={"scs_khz": [30, 120]}).points()
    # a YAML boolean is not a number of milliseconds
    with pytest.raises(ConfigurationError, match="interval_ms"):
        spec_from_mapping({"base": {"interval_ms": True}}).points()


@pytest.mark.parametrize("workers", [1, 2])
def test_invalid_point_rejects_the_sweep_before_any_row(tmp_path, workers, capsys):
    """One invalid point stops a sweep before any point runs, serial or
    parallel: no row, no sidecar, and the CLI exits 2."""
    doc = {"base": dict(FAST_BASE), "axes": {"layers": [2, 3]}, "workers": workers}
    with pytest.raises(ConfigurationError, match="layers"):
        run_sweep(spec_from_mapping(doc), tmp_path / "api")
    assert not (tmp_path / "api").exists()
    out = tmp_path / "cli"
    assert cli.main(["sweep", "--spec", str(write_spec(tmp_path, doc)),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: layers")
    assert not out.exists()


@pytest.mark.parametrize("axis", [{"density_veh_km_lane": [10, 10.0]},
                                  {"interval_ms": [100, 100.0]},
                                  {"cell_radius_m": [866, 866.0]}])
def test_points_sharing_a_key_reject_the_sweep(tmp_path, axis, capsys):
    """Two points with one configuration key, here one configuration spelled
    twice, would write rows that resume cannot tell apart: the sweep is
    rejected before any point runs, and the CLI exits 2 without creating
    its directory."""
    doc = {"base": dict(FAST_BASE), "axes": axis}
    key = RunConfig(**FAST_BASE).key()     # each axis value is the default
    with pytest.raises(ConfigurationError, match=key):
        spec_from_mapping(doc).points()
    out = tmp_path / "cli"
    assert cli.main(["sweep", "--spec", str(write_spec(tmp_path, doc)),
                     "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis", [{"packet_bytes": [100, 300]}, {"harq_group_size": [1, 2]}])
def test_points_outside_the_readable_key_get_their_own_rows(tmp_path, axis):
    """Fields that the readable part of the key omits still separate
    points: the sweep writes one row per point."""
    spec = ExperimentSpec(base=dict(FAST_BASE), axes=axis)
    rows = read_results(run_sweep(spec, tmp_path))
    assert sorted(r["config_key"] for r in rows) == sorted(p.key() for p in spec.points())
    assert len({r["config_key"] for r in rows}) == 2


def test_interrupted_sweep_resumes(tmp_path):
    """A sweep stopped after its first point keeps that point's row, which
    holds every RunConfig field of the point; the rerun adds each remaining
    point exactly once.  The sidecar holds the version and the spec."""
    spec = spec_from_mapping({"base": FAST_BASE, "axes": {"density_veh_km_lane": [10, 20, 30]}})

    def interrupt(report):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_sweep(spec, tmp_path, progress=interrupt)
    assert len(read_results(tmp_path / "results.csv")) == 1
    csv_path = run_sweep(spec, tmp_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(r["config_key"] for r in rows) == sorted(p.key() for p in spec.points())
    for row in rows:
        cfg = RunConfig(**{f.name: _coerce(f.name, row[f.name])
                           for f in dataclasses.fields(RunConfig)})
        assert cfg.key() == row["config_key"] and cfg in spec.points()
    meta = json.loads((tmp_path / "results.meta.json").read_text())
    assert set(meta) == {"version", "spec"} and spec_from_mapping(meta["spec"]) == spec
    assert not list(tmp_path.glob("*.tmp"))


def test_cartesian_expansion_deterministic():
    spec = ExperimentSpec(base=dict(FAST_BASE),
                          axes={"density_veh_km_lane": [20, 10],
                                "mcs_table": ["HEP", "LEP"]})
    keys = [p.key() for p in spec.points()]
    assert len(keys) == 4 == len(set(keys))
    assert keys == [p.key() for p in spec.points()]


def test_empty_axes_single_run():
    spec = ExperimentSpec(base=dict(FAST_BASE), axes={})
    assert len(spec.points()) == 1
    # an absent or null base or axes is empty
    for doc in ({}, {"base": None, "axes": None}):
        empty = spec_from_mapping(doc)
        assert (empty.base, empty.axes) == ({}, {})


def test_sweep_resumable_no_duplicates(tmp_path):
    spec = ExperimentSpec(base=dict(FAST_BASE),
                          axes={"density_veh_km_lane": [10, 20]})
    csv_path = run_sweep(spec, tmp_path)
    rows = read_results(csv_path)
    assert len(rows) == 2
    # rerun: completed points skipped, no duplicate rows
    csv_path = run_sweep(spec, tmp_path)
    assert len(read_results(csv_path)) == 2
    # extending an axis only adds the new point
    spec2 = ExperimentSpec(base=dict(FAST_BASE),
                           axes={"density_veh_km_lane": [10, 20, 40]})
    run_sweep(spec2, tmp_path)
    assert len(read_results(csv_path)) == 3
    meta = (tmp_path / "results.meta.json").read_text()
    assert "density_veh_km_lane" in meta


# the header of a table from before every RunConfig field was a column
_OLD_HEADER = ",".join([
    "scs_khz", "bandwidth_mhz", "scheduling", "retransmission", "k", "harq_max_retx", "dl_cast",
    "unicast_m", "mcs_table", "slot_type", "control_variant", "traffic", "interval_ms",
    "density_veh_km_lane", "seed", *(f.name for f in dataclasses.fields(MetricsReport))])


@pytest.mark.parametrize("name, content, message", [
    ("results.meta.json", "{bad", "Expecting property name"),
    ("results.meta.json", "[]", "not a mapping"),
    ("results.csv", "a,b\n1,2\n", r"missing \['scs_khz', .*'runtime_s'\], unexpected \['a', 'b'\]"),
    ("results.csv", b"\xff\xfe", "can't decode"),
    ("results.csv", _OLD_HEADER + "\n",
     r"missing \['harq_group_size', 'packet_bytes', .*'relative_error_target'\], "
     r"unexpected \[\]"),
], ids=["sidecar_not_json", "sidecar_list", "table_without_key", "table_not_text",
        "table_of_an_older_version"])
def test_sweep_refuses_to_resume_a_foreign_directory(tmp_path, capsys, name, content,
                                                      message):
    """An output directory whose table or sidecar a sweep did not write is
    rejected before any point runs: nothing is written there, and the CLI
    exits 2 with `error: cannot resume`."""
    spec_path = write_spec(tmp_path, {"base": dict(FAST_BASE)})
    out = tmp_path / "out"
    out.mkdir()
    path = write_input(out / name, content)
    before = path.read_bytes()

    def ran(report):
        raise AssertionError("a point ran")

    with pytest.raises(ConfigurationError, match=f"cannot resume {out}: .*{message}"):
        run_sweep(parse_spec(spec_path), out, progress=ran)
    assert cli.main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot resume {out}: ") and "Traceback" not in err
    assert list(out.iterdir()) == [path] and path.read_bytes() == before


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, monkeypatch, command):
    """An output path that is an existing file stops `run` and `sweep` with
    `error:` and exit 2 before anything runs, and leaves the file as it was."""
    def ran(cfg):
        raise AssertionError("a point ran")

    monkeypatch.setattr(cli, "run", ran)
    monkeypatch.setattr(experiment, "run", ran)
    afile = write_input(tmp_path / "afile", "kept\n")
    args = {"run": ["run", *(f"--set={k}={v}" for k, v in FAST_BASE.items())],
            "sweep": ["sweep", "--spec", str(write_spec(tmp_path, {"base": dict(FAST_BASE)}))]}
    assert cli.main([*args[command], "--out", str(afile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create directory {afile}: ") and "Traceback" not in err
    assert afile.read_text() == "kept\n"


def test_sweep_writes_the_header_into_an_empty_table(tmp_path):
    """A table left empty (a sweep killed before its header reached the
    disk) gets the header before its first row."""
    (tmp_path / "results.csv").touch()
    csv_path = run_sweep(ExperimentSpec(base=dict(FAST_BASE), axes={}), tmp_path)
    assert [r["config_key"] for r in read_results(csv_path)] == [
        RunConfig(**FAST_BASE).key()]


def test_sweep_rows_keyed_and_typed(tmp_path):
    spec = ExperimentSpec(base=dict(FAST_BASE),
                          axes={"mcs_table": ["LEP", "HEP"]})
    csv_path = run_sweep(spec, tmp_path)
    rows = read_results(csv_path)
    keys = {r["config_key"] for r in rows}
    assert len(keys) == 2
    for r in rows:
        assert r["mean_ms"] > 0
        assert r["mcs_table"] in ("LEP", "HEP")


def test_emit_figure_series(tmp_path):
    base = dict(FAST_BASE)
    base["interval_ms"] = 100.0
    spec = ExperimentSpec(base=base,
                          axes={"density_veh_km_lane": [10, 20],
                                "mcs_table": ["LEP", "HEP"]})
    csv_path = run_sweep(spec, tmp_path)
    written = emit_figure_data(csv_path, "fig4", tmp_path / "series")
    # one series per (mcs_table, interval) pair, one y column
    assert len(written) == 2
    for path in written:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["density_veh_km_lane", "mean_ms"]
        xs = [float(r[0]) for r in rows[1:]]
        assert xs == sorted(xs) and len(xs) == 2
    with pytest.raises(ConfigurationError):
        emit_figure_data(csv_path, "fig99", tmp_path / "series")
    with pytest.raises(ConfigurationError):
        emit_figure_data(csv_path, "fig3", tmp_path / "series")  # no unicast rows


def test_single_point_override_fields():
    cfg = RunConfig(**FAST_BASE)
    assert cfg.key().startswith("scs30-bw20-semi_static")


def test_axis_value_order_does_not_change_keys(tmp_path):
    a = ExperimentSpec(base=dict(FAST_BASE),
                       axes={"density_veh_km_lane": [20, 10],
                             "mcs_table": ["HEP", "LEP"]})
    b = ExperimentSpec(base=dict(FAST_BASE),
                       axes={"mcs_table": ["LEP", "HEP"],
                             "density_veh_km_lane": [10, 20]})
    assert {p.key() for p in a.points()} == {p.key() for p in b.points()}


@pytest.mark.parametrize("name, raw", [("k", "abc"), ("k", "2.5"), ("interval_ms", "x")])
def test_unparsable_field_value_is_a_configuration_error(name, raw):
    with pytest.raises(ConfigurationError, match=name):
        _coerce(name, raw)


@pytest.mark.parametrize("key, raw", [("workers", "two"), ("workers", 2.7), ("seed", 1.5),
                                      ("seed", True), ("workers", None)])
def test_sweep_seed_and_workers_must_be_integers(tmp_path, capsys, key, raw):
    doc = {"base": dict(FAST_BASE), key: raw}
    with pytest.raises(ConfigurationError, match=key):
        spec_from_mapping(doc)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--spec", str(write_spec(tmp_path, doc)), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: field {key!r}")
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_needs_at_least_one_worker(tmp_path, capsys, workers):
    doc = {"base": dict(FAST_BASE), "workers": workers}
    with pytest.raises(ConfigurationError, match="workers"):
        spec_from_mapping(doc)
    with pytest.raises(ConfigurationError, match="workers"):
        ExperimentSpec(base=dict(FAST_BASE), axes={}, workers=workers)
    out = tmp_path / "out"
    for spec, flag in ((doc, []), ({"base": dict(FAST_BASE)}, ["--workers", str(workers)])):
        argv = ["sweep", "--spec", str(write_spec(tmp_path, spec)), *flag, "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: workers must be at least 1")
    assert not out.exists()


def test_sweep_accepts_integral_floats():
    spec = spec_from_mapping({"base": {"k": 2.0}, "seed": 3.0, "workers": 2.0})
    assert (spec.base["k"], spec.seed, spec.workers) == (2, 3, 2)
    assert type(spec.seed) is type(spec.workers) is type(spec.base["k"]) is int


@pytest.mark.parametrize("text, message", [
    ("base: [1, 2]\n", "base must be a mapping"),
    ("base: 0\n", "base must be a mapping"),
    ("base: false\n", "base must be a mapping"),
    ("axes: [1]\n", "axes must be a mapping"),
    ('axes: ""\n', "axes must be a mapping"),
    ("base: {a: [}\n", "not valid YAML"),
    ("output: ~\n", "output must be a string, got None"),
    ("output: [a, b]\n", "output must be a string, got "),
    *UNREADABLE,
])
def test_malformed_sweep_file_is_a_configuration_error(tmp_path, capsys, text, message):
    """A sweep file whose base or axes is not a mapping, that does not
    parse, or that cannot be read is rejected: the CLI exits 2 with `error:`
    and creates nothing."""
    path = write_input(tmp_path / "sweep.yaml", text)
    with pytest.raises(ConfigurationError, match=message):
        parse_spec(path)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--spec", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("- 1\n- 2\n", "base must be a mapping"),
    ("seed: [}\n", "not valid YAML"),
    *UNREADABLE,
])
def test_malformed_run_config_exits_2(tmp_path, capsys, text, message):
    path = write_input(tmp_path / "run.yaml", text)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("content, message", UNREADABLE)
def test_unreadable_result_table_exits_2(tmp_path, capsys, content, message):
    path = write_input(tmp_path / "results.csv", content)
    out = tmp_path / "series"
    assert cli.main(["figure", "--table", str(path), "--figure", "fig4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_override_of_an_axis_exits_2(tmp_path, capsys):
    """`--set` on a field the spec sweeps is rejected as the same field in
    base and axes is: the CLI exits 2 before any row is written."""
    doc = {"base": dict(FAST_BASE), "axes": {"density_veh_km_lane": [2, 3]}}
    out = tmp_path / "out"
    argv = ["sweep", "--spec", str(write_spec(tmp_path, doc)),
            "--set", "density_veh_km_lane=5", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: 'density_veh_km_lane' appears in both base and axes")
    assert not out.exists()
    with pytest.raises(ConfigurationError, match="appears in both base and axes"):
        ExperimentSpec(base={"density_veh_km_lane": 5}, axes={"density_veh_km_lane": (2, 3)})


def test_cli_reports_bad_override_without_traceback(capsys):
    assert cli.main(["run", "--set", "k=abc"]) == 2
    assert capsys.readouterr().err.startswith("error: field 'k'")
    assert cli._parse_overrides(["k=4", "interval_ms=20", "slot_type=mini7"]) == {
        "k": 4, "interval_ms": 20.0, "slot_type": "mini7"}
