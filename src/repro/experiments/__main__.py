"""The ``repro experiments`` subcommand: regenerate the paper's figures.

Usage::

    python -m repro.experiments fig3            # one figure
    python -m repro.experiments all --quick     # smoke-run everything
    python -m repro.experiments fig7 --out fig7.txt

The ``repro`` parser tree (:mod:`repro.main`) registers
:func:`add_arguments` and dispatches to :func:`run`;
``python -m repro.experiments`` and ``repro-experiments`` are aliases
for ``repro experiments``.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
from typing import List, Optional

from . import RUNNERS
from .report import render_report

#: ``--X-dir`` flag -> (runner parameter, artifact file name, help).  A
#: runner receives a path under the directory only when its signature
#: takes the parameter.
ARTIFACT_DIRS = {
    "--bench-dir": (
        "bench_path",
        "BENCH_{name}.json",
        "write machine-readable BENCH_<name>.json artifacts into this "
        "directory (experiments that support benchmarking, e.g. fig9)",
    ),
    "--audit-dir": (
        "audit_path",
        "AUDIT_{name}.jsonl",
        "write decision-audit AUDIT_<name>.jsonl logs into this "
        "directory (experiments that support auditing, e.g. fig5-fig7); "
        "inspect with `repro explain <server> <log>`",
    ),
    "--events-dir": (
        "events_path",
        "EVENTS_{name}.jsonl",
        "write each run's lifecycle event log (run_start, final metrics "
        "snapshot, run_end) into this directory as EVENTS_<name>.jsonl",
    ),
    "--trace-dir": (
        "trace_path",
        "TRACE_{name}.jsonl",
        "write causal span logs into this directory as "
        "TRACE_<name>.jsonl (experiments that support tracing, e.g. "
        "fig9, serve); `repro obs report <log>` renders the phase "
        "table, `repro obs trace <log>` one trace's span tree",
    ),
}


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The experiment selection and every runner flag."""
    parser.add_argument(
        "experiment",
        choices=sorted(RUNNERS) + ["all"],
        help="which figure to regenerate ('all' runs every one)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sweeps / fewer seeds (minutes -> seconds)",
    )
    parser.add_argument(
        "--seed", type=int, default=2008, help="base random seed (default 2008)"
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        help="also append the rendered tables to this file",
    )
    parser.add_argument(
        "--markdown",
        type=str,
        default=None,
        help="write a Markdown report of all results to this file",
    )
    parser.add_argument(
        "--svg-dir",
        type=str,
        default=None,
        help="also render each figure as an SVG into this directory",
    )
    for flag, (_, _, help_text) in ARTIFACT_DIRS.items():
        parser.add_argument(flag, type=str, default=None, help=help_text)
    parser.add_argument(
        "--engine",
        type=str,
        default=None,
        help=(
            "assessment engine mode for experiments that support it "
            "(e.g. fig9/p2p_scale accept 'incremental' to also measure "
            "the repro.serve incremental path and assert equivalence)"
        ),
    )


def run(args: argparse.Namespace) -> int:
    """Run the selected experiment(s) and write the requested artifacts."""
    artifact_dirs = {
        flag: getattr(args, flag[2:].replace("-", "_")) for flag in ARTIFACT_DIRS
    }
    for directory in artifact_dirs.values():
        if directory:
            os.makedirs(directory, exist_ok=True)

    names = sorted(RUNNERS) if args.experiment == "all" else [args.experiment]
    rendered = []
    results = []
    for name in names:
        runner = RUNNERS[name]
        kwargs = {"quick": args.quick, "base_seed": args.seed}
        params = inspect.signature(runner).parameters
        if args.engine and "engine" in params:
            kwargs["engine"] = args.engine
        for flag, (param, pattern, _) in ARTIFACT_DIRS.items():
            directory = artifact_dirs[flag]
            if directory and param in params:
                kwargs[param] = os.path.join(directory, pattern.format(name=name))
        started = time.perf_counter()
        result = runner(**kwargs)
        elapsed = time.perf_counter() - started
        block = result.render() + f"\n({elapsed:.1f}s)\n"
        print(block)
        rendered.append(block)
        results.append(result)
        for param, _, _ in ARTIFACT_DIRS.values():
            if param in kwargs:
                print(f"wrote {kwargs[param]}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write("\n".join(rendered))
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(render_report(results))
    if args.svg_dir:
        from .svgplot import write_svg

        os.makedirs(args.svg_dir, exist_ok=True)
        for result in results:
            target = os.path.join(args.svg_dir, f"{result.experiment}.svg")
            # Fig. 9 spans 10k-800k transactions: log x keeps it readable
            write_svg(result, target, log_x=(result.experiment == "fig9"))
            print(f"wrote {target}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """``repro experiments`` under its own name (``repro-experiments``)."""
    from ..main import main as repro_main  # lazy: repro.main imports this module

    return repro_main(["experiments", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
