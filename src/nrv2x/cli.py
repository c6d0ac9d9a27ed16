"""Command-line front end: single runs, sweeps, and figure-data extraction.

Every output holds result rows, one JSON object a line: `run` prints its
point's row, `sweep` appends one per point to ``results.jsonl``, and
`figure` reads them back.  So ``nrv2x run ... >> DIR/results.jsonl`` adds a
row to a table that `sweep` resumes from.  Every RunConfig field, the seed
too, is set by a file (``--config``, a sweep's ``base``) or ``--set``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .engine import RunConfig, run
from .experiment import (_coerce, emit_figure_data, load_yaml, parse_spec, result_row,
                         run_sweep, spec_from_mapping)
from .phy import ConfigurationError


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"override {pair!r} must look like field=value")
        name, raw = pair.split("=", 1)
        out[name] = _coerce(name, raw)
    return out


def _cmd_run(args) -> int:
    base = spec_from_mapping({"base": load_yaml(args.config)}).base if args.config else {}
    cfg = RunConfig(**{**base, **_parse_overrides(args.set or [])})
    print(json.dumps(result_row(cfg, run(cfg))))
    return 0


def _cmd_sweep(args) -> int:
    spec = parse_spec(args.spec)
    if args.workers is not None:
        spec = dataclasses.replace(spec, workers=args.workers)
    out_dir = args.out or spec.output
    spec = dataclasses.replace(spec, base={**spec.base, **_parse_overrides(args.set or [])})

    def progress(report):
        print(f"{report.config_key}: mean {report.mean_ms:.3f} ms "
              f"drop {report.drop_fraction:.3f} ({report.runtime_s:.1f} s)")

    print(f"results: {run_sweep(spec, out_dir, progress=progress)}")
    return 0


def _cmd_figure(args) -> int:
    for path in emit_figure_data(args.table, args.figure, args.out):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrv2x",
        description="Radio-latency simulation of V2N2V packet exchanges over 5G NR",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single configuration point")
    p_run.add_argument("--config", help="YAML file of RunConfig fields")
    p_run.add_argument("--set", action="append", metavar="FIELD=VALUE",
                       help="override one configuration field")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a sweep specification")
    p_sweep.add_argument("--spec", required=True, help="YAML sweep file")
    p_sweep.add_argument("--out", help="output directory (default from spec)")
    p_sweep.add_argument("--workers", type=int, help="parallel point workers")
    p_sweep.add_argument("--set", action="append", metavar="FIELD=VALUE",
                         help="override one base field for every point")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="emit plottable series for a figure")
    p_fig.add_argument("--table", required=True, help="results.jsonl of result rows")
    p_fig.add_argument("--figure", required=True, help="figure id, e.g. fig4")
    p_fig.add_argument("--out", required=True, help="series output directory")
    p_fig.set_defaults(fn=_cmd_figure)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
