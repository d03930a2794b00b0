"""``repro`` — the umbrella command line for the whole package.

One front door over the existing entry points plus the observability
tooling::

    repro assess feedback.csv --test multi          # = repro-assess
    repro experiments fig9 --quick                  # = repro-experiments
    repro obs report BENCH_fig9.json                # render a bench artifact
    repro obs report TRACE_fig9.jsonl               # phase table of a span log
    repro obs report run_events.jsonl               # summarize an event log
    repro obs diff baseline.json candidate.json     # bench regression gate
    repro obs diff candidate.json                   # vs benchmarks/baselines/BENCH_<bench>.json
    repro obs validate run_audit.jsonl              # schema-check audit records
    repro obs validate BENCH_fig7.json              # schema-check a bench artifact
    repro obs trace run_spans.jsonl                 # list trace ids in a span log
    repro obs trace run_spans.jsonl 3f2a            # render one trace's span tree
    repro obs slo run_events.jsonl --out BENCH_slo.json  # error-budget report/gate
    repro obs fleet fleet-out/                      # per-node metrics + ring consistency
    repro explain mallory run_audit.jsonl           # why was this server rejected?
    repro health                                    # live breaker/quarantine/retry state
    repro health run_events.jsonl                   # resilience events of a finished run
    repro --log-level DEBUG assess feedback.csv     # opt into repro.* logging

``assess`` and ``experiments`` forward their remaining arguments
verbatim to the dedicated parsers, so every flag documented there works
here unchanged.  ``REPRO_LOG_LEVEL`` in the environment acts as the
default for ``--log-level``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import obs
from .cli import main as assess_main
from .experiments.__main__ import main as experiments_main

__all__ = ["main", "build_parser"]

#: Where ``repro obs diff <candidate>`` looks for the committed baseline.
DEFAULT_BASELINES = Path("benchmarks") / "baselines"


def build_parser() -> argparse.ArgumentParser:
    """The top-level ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Two-phase trust assessment toolkit (honest-player modeling)",
    )
    parser.add_argument(
        "--log-level",
        type=str,
        default=None,
        help=(
            "enable repro.* logging at this level (DEBUG, INFO, ...); "
            "defaults to $REPRO_LOG_LEVEL"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_assess = sub.add_parser(
        "assess",
        help="two-phase assessment of a feedback log (see repro-assess)",
        add_help=False,
    )
    p_assess.add_argument("rest", nargs=argparse.REMAINDER)

    p_exp = sub.add_parser(
        "experiments",
        help="regenerate the paper's figures (see repro-experiments)",
        add_help=False,
    )
    p_exp.add_argument("rest", nargs=argparse.REMAINDER)

    p_obs = sub.add_parser("obs", help="observability artifact tooling")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_report = obs_sub.add_parser(
        "report",
        help="render a BENCH_*.json, a span log's phase table, a JSONL event "
        "log, or an artifact directory",
    )
    p_report.add_argument(
        "artifact", help="path to a bench JSON, span log, event log, or directory"
    )
    p_diff = obs_sub.add_parser(
        "diff", help="compare two bench artifacts; exit 2 on regression"
    )
    p_diff.add_argument("baseline", help="baseline BENCH_*.json (or the candidate)")
    p_diff.add_argument(
        "candidate",
        nargs="?",
        default=None,
        help="candidate BENCH_*.json; omitted, the single path is the "
        "candidate and the committed benchmarks/baselines/BENCH_<bench>.json "
        "(relative to the current directory) is the baseline",
    )
    p_diff.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="tolerated fractional slowdown per benchmark (default: 0.20)",
    )
    p_validate = obs_sub.add_parser(
        "validate",
        help="schema-validate an artifact: JSONL audit log, BENCH_*.json, "
        "FLEET_*.json or POSTMORTEM_*.json",
    )
    p_validate.add_argument("artifact", help="path to the artifact")
    p_trace = obs_sub.add_parser(
        "trace",
        help="render one trace's span tree from a JSONL span log "
        "(or list the trace ids it holds)",
    )
    p_trace.add_argument("spans", help="path to a span JSONL file (tracing_session)")
    p_trace.add_argument(
        "trace_id",
        nargs="?",
        default=None,
        help="trace id (a unique prefix suffices); omitted, lists all trace ids",
    )
    p_trace.add_argument(
        "--otlp",
        default=None,
        metavar="PATH",
        help="additionally write the spans as OTLP/JSON to PATH",
    )
    p_slo = obs_sub.add_parser(
        "slo",
        help="error-budget/burn-rate report from a run's metric snapshots; "
        "exit 2 when any budget is burning",
    )
    p_slo.add_argument(
        "source",
        help="JSONL event log with metric snapshots, or an existing BENCH_slo.json",
    )
    p_slo.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the evaluation as a BENCH_slo.json artifact to PATH",
    )
    p_slo.add_argument(
        "--latency-threshold",
        type=float,
        default=0.050,
        metavar="SECONDS",
        help="latency SLO bound for serve.assess.seconds (default: 0.050)",
    )
    p_slo.add_argument(
        "--latency-objective",
        type=float,
        default=0.99,
        help="fraction of assessments that must meet the bound (default: 0.99)",
    )

    p_fleet = obs_sub.add_parser(
        "fleet",
        help="fleet view of a p2p run: topology table, per-node metrics, "
        "ring-consistency report; exit 2 when the ring is inconsistent",
    )
    p_fleet.add_argument(
        "source",
        help="FLEET_*.json artifact, or a directory holding one "
        "(e.g. the --fleet-dir of a p2p_scale run)",
    )
    p_fleet.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write a schema-validated BENCH_fleet.json to PATH",
    )
    p_postmortem = obs_sub.add_parser(
        "postmortem",
        help="render a flight-recorder post-mortem bundle (POSTMORTEM_*.json)",
    )
    p_postmortem.add_argument("bundle", help="path to the bundle")
    p_postmortem.add_argument(
        "--tail",
        type=int,
        default=20,
        help="events to show from the end of the ring (default: 20)",
    )

    p_explain = sub.add_parser(
        "explain", help="explain a server's latest audit verdict from a JSONL log"
    )
    p_explain.add_argument("server", help="server id to explain")
    p_explain.add_argument("audit_log", help="JSONL event log containing audit records")

    p_health = sub.add_parser(
        "health",
        help="resilience health: breaker states, quarantine depth, retry counters",
    )
    p_health.add_argument(
        "events",
        nargs="?",
        default=None,
        help="optional JSONL event log to summarize instead of the live "
        "in-process registry (which is empty unless this process built "
        "serving components)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro`` console script.

    Wraps the dispatcher in the BrokenPipeError guard so *every*
    subcommand — ``obs report | head`` included, however it was
    launched — exits quietly with the conventional SIGPIPE status
    instead of a traceback.
    """
    try:
        return _run(argv)
    except BrokenPipeError:
        # the reader closed the pipe mid-print: point stdout at devnull
        # so the interpreter's exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _run(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    log_level = args.log_level or os.environ.get("REPRO_LOG_LEVEL")
    if log_level:
        obs.configure_logging(log_level)
    if args.command == "assess":
        return assess_main(args.rest)
    if args.command == "experiments":
        return experiments_main(args.rest)
    if args.command == "explain":
        return _explain(args.server, args.audit_log)
    if args.command == "health":
        return _health(args.events)
    if args.obs_command == "diff":
        return _obs_diff(args.baseline, args.candidate, args.max_regression)
    if args.obs_command == "validate":
        return _obs_validate(args.artifact)
    if args.obs_command == "trace":
        return _obs_trace(args.spans, args.trace_id, args.otlp)
    if args.obs_command == "slo":
        return _obs_slo(
            args.source, args.out, args.latency_threshold, args.latency_objective
        )
    if args.obs_command == "fleet":
        return _obs_fleet(args.source, args.out)
    if args.obs_command == "postmortem":
        return _obs_postmortem(args.bundle, args.tail)
    # obs report
    try:
        print(obs.render_artifact(args.artifact))
    except BrokenPipeError:
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _explain(server: str, audit_log: str) -> int:
    try:
        records = obs.read_audit_jsonl(audit_log)
        print(obs.explain_server(records, server))
    except BrokenPipeError:
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _health(events: Optional[str]) -> int:
    from . import resilience

    if events is None:
        print(resilience.render_health(resilience.health_report()))
        return 0
    try:
        records = obs.read_events(events)
    except BrokenPipeError:
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = resilience.summarize_events(records)
    print(resilience.render_event_summary(summary))
    return 0


def _obs_diff(baseline: str, candidate: Optional[str], max_regression: float) -> int:
    try:
        if candidate is None:
            # single-path form: the argument is the candidate; diff it
            # against the committed benchmarks/baselines/BENCH_<bench>.json.
            cand_payload = obs.read_bench_json(baseline)
            default = DEFAULT_BASELINES / f"BENCH_{cand_payload['bench']}.json"
            if not default.exists():
                print(
                    f"error: no committed baseline {default} for bench "
                    f"{cand_payload['bench']!r}; pass an explicit baseline",
                    file=sys.stderr,
                )
                return 1
            base_payload = obs.read_bench_json(default)
        else:
            base_payload = obs.read_bench_json(baseline)
            cand_payload = obs.read_bench_json(candidate)
        diff = obs.compare_bench_payloads(
            base_payload, cand_payload, max_regression=max_regression
        )
    except BrokenPipeError:
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(obs.render_bench_diff(diff))
    return 0 if diff["ok"] else 2


def _obs_trace(spans_path: str, trace_id: Optional[str], otlp: Optional[str]) -> int:
    import json

    try:
        spans = obs.read_span_jsonl(spans_path)
    except BrokenPipeError:
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if otlp is not None:
        with open(otlp, "w", encoding="utf-8") as handle:
            json.dump(obs.spans_to_otlp(spans), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote OTLP JSON export to {otlp}")
    if trace_id is None:
        ids = obs.trace_ids(spans)
        if not ids:
            print(f"error: no spans in {spans_path}", file=sys.stderr)
            return 1
        counts: dict = {}
        for span in spans:
            counts[span["trace_id"]] = counts.get(span["trace_id"], 0) + 1
        print(f"{len(ids)} trace(s) in {spans_path}:")
        for tid in ids:
            print(f"  {tid}  ({counts[tid]} spans)")
        return 0
    try:
        print(obs.render_trace_tree(spans, trace_id))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _obs_slo(
    source: str,
    out: Optional[str],
    latency_threshold: float,
    latency_objective: float,
) -> int:
    from .obs import slo as _slo

    path = Path(source)
    if path.suffix.lower() == ".json":
        # an already-written BENCH_slo.json: validate and re-report burn
        try:
            payload = obs.read_bench_json(path)
            obs.validate_slo_payload(payload)
        except BrokenPipeError:
            raise
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        burning = [
            str(row["name"])
            for row in payload["results"]
            if row["slo"].get("burning")
        ]
        total = len(payload["results"])
        if burning:
            print(f"{source}: {len(burning)}/{total} budgets burning: " + ", ".join(burning))
            return 2
        print(f"{source}: all {total} SLOs within budget")
        return 0
    specs = _slo.default_serve_slos(
        latency_threshold_s=latency_threshold,
        latency_objective=latency_objective,
    )
    try:
        evaluation = _slo.evaluate_events(source, specs)
    except BrokenPipeError:
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(obs.render_slo_report(evaluation))
    if out is not None:
        payload = obs.write_bench_json(
            out,
            "slo",
            obs.evaluation_to_bench_rows(evaluation),
            meta=obs.run_metadata(source=str(source)),
        )
        obs.validate_slo_payload(payload)
        print(f"wrote {out}")
    return 0 if evaluation.ok else 2


def _obs_fleet(source: str, out: Optional[str]) -> int:
    path = Path(source)
    try:
        if path.is_dir():
            candidates = sorted(path.glob("FLEET_*.json"))
            if not candidates:
                print(f"error: no FLEET_*.json in {source}", file=sys.stderr)
                return 1
            fleet_path = candidates[0]
        else:
            fleet_path = path
        payload = obs.read_fleet_json(fleet_path)
    except BrokenPipeError:
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(obs.render_fleet(payload))
    if out is not None:
        bench = obs.write_bench_json(
            out,
            "fleet",
            obs.fleet_to_bench_rows(payload),
            meta=payload.get("meta") or obs.run_metadata(source=str(fleet_path)),
        )
        obs.validate_fleet_bench_payload(bench)
        print(f"wrote {out}")
    return 0 if payload["consistency"].get("ok") else 2


def _obs_postmortem(bundle_path: str, tail: int) -> int:
    try:
        bundle = obs.read_postmortem(bundle_path)
    except BrokenPipeError:
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(obs.render_postmortem(bundle, tail=tail))
    return 0


def _obs_validate(artifact: str) -> int:
    import json

    path = Path(artifact)
    if path.suffix.lower() == ".json":
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except BrokenPipeError:
            raise
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for kind, validate in (
            ("bench", obs.validate_bench_payload),
            ("fleet", obs.validate_fleet_payload),
            ("postmortem", obs.validate_postmortem_bundle),
        ):
            try:
                validate(payload)
            except ValueError:
                continue
            print(f"{artifact}: valid {kind} artifact")
            return 0
        print(
            f"error: {artifact} is not a valid bench, fleet, "
            f"or postmortem artifact",
            file=sys.stderr,
        )
        return 1
    try:
        records = obs.read_audit_jsonl(artifact)
    except BrokenPipeError:
        raise
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not records:
        print(f"error: no audit records in {artifact}", file=sys.stderr)
        return 1
    print(f"{artifact}: {len(records)} audit record(s), all valid")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
