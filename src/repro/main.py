"""``repro`` — the command line for the whole package.

One parser tree covers the assessment, the experiment runners and the
observability tooling::

    repro assess feedback.csv --test multi          # = repro-assess
    repro experiments fig9 --quick                  # = repro-experiments
    repro obs report BENCH_fig9.json                # render a bench artifact
    repro obs report TRACE_fig9.jsonl               # phase table of a span log
    repro obs report run_events.jsonl               # summarize an event log
    repro obs diff baseline.json candidate.json     # bench regression gate
    repro obs diff candidate.json                   # vs benchmarks/baselines/BENCH_<bench>.json
    repro obs validate run_audit.jsonl              # schema-check audit records
    repro obs validate TRACE_fig9.jsonl             # schema-check a span log
    repro obs trace run_spans.jsonl                 # list trace ids in a span log
    repro obs trace run_spans.jsonl 3f2a            # render one trace's span tree
    repro explain mallory run_audit.jsonl           # why was this server rejected?
    repro --log-level DEBUG assess feedback.csv     # opt into repro.* logging

``--log-level`` is accepted before or after the subcommand, and
``REPRO_LOG_LEVEL`` in the environment is its default.  ``obs report``
and ``obs validate`` recognise an artifact by its content
(:func:`repro.obs.artifact_kind`), never by its file name.

Every command but ``experiments`` reports an unreadable or malformed
input as ``error: ...`` on stderr with exit 1; a runner's exception
keeps its traceback.  A reader that closes the pipe early gets the
conventional SIGPIPE status 141 from every command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from . import obs
from .core.config import BehaviorTestConfig
from .core.registry import make_behavior_test
from .core.two_phase import TwoPhaseAssessor
from .core.verdict import AssessmentStatus, BehaviorVerdict, MultiTestReport
from .experiments import __main__ as experiments
from .feedback.history import TransactionHistory
from .feedback.io import read
from .feedback.records import Feedback
from .trust.registry import available_trust_functions, make_trust_function

__all__ = ["main", "assess_main", "build_parser"]

#: Where ``repro obs diff <candidate>`` looks for the committed baseline.
DEFAULT_BASELINES = Path("benchmarks") / "baselines"

_TEST_CHOICES = ("none", "single", "multi", "collusion", "collusion-multi")


def _log_level_parser(default) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "--log-level",
        default=default,
        help=(
            "enable repro.* logging at this level (DEBUG, INFO, ...); "
            "defaults to $REPRO_LOG_LEVEL"
        ),
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser, every subcommand included."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Two-phase trust assessment toolkit (honest-player modeling)",
        parents=[_log_level_parser(None)],
    )
    # after the subcommand, --log-level sets the value only when given,
    # so it never overwrites one given before the subcommand
    after = [_log_level_parser(argparse.SUPPRESS)]
    sub = parser.add_subparsers(dest="command", required=True)

    p_assess = sub.add_parser(
        "assess",
        parents=after,
        help="two-phase assessment of the servers in a feedback log",
        description="Two-phase trust assessment of servers in a feedback log; "
        "exit 2 when any server is suspicious",
    )
    _add_assess_arguments(p_assess)
    p_assess.set_defaults(run=_assess)

    p_exp = sub.add_parser(
        "experiments",
        parents=after,
        help="regenerate the paper's figures",
        description="Reproduce the evaluation figures of 'On the Modeling of "
        "Honest Players in Reputation Systems'",
    )
    experiments.add_arguments(p_exp)
    p_exp.set_defaults(run=experiments.run)

    p_obs = sub.add_parser("obs", help="observability artifact tooling")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_report = obs_sub.add_parser(
        "report",
        parents=after,
        help="render a bench JSON, a span log's phase table or an event "
        "log, or an artifact directory",
    )
    p_report.add_argument("artifact", help="path to an artifact or a directory")
    p_report.set_defaults(run=_obs_report)

    p_diff = obs_sub.add_parser(
        "diff", parents=after, help="compare two bench artifacts; exit 2 on regression"
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
    p_diff.set_defaults(run=_obs_diff)

    p_validate = obs_sub.add_parser(
        "validate",
        parents=after,
        help="schema-validate an artifact: bench JSON, span log or audit log",
    )
    p_validate.add_argument("artifact", help="path to the artifact")
    p_validate.set_defaults(
        run=lambda args: print(
            f"{args.artifact}: {obs.validate_artifact(args.artifact)}"
        )
    )

    p_trace = obs_sub.add_parser(
        "trace",
        parents=after,
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
    p_trace.set_defaults(run=_obs_trace)

    p_explain = sub.add_parser(
        "explain",
        parents=after,
        help="explain a server's latest audit verdict from a JSONL log",
    )
    p_explain.add_argument("server", help="server id to explain")
    p_explain.add_argument("audit_log", help="JSONL event log containing audit records")
    p_explain.set_defaults(
        run=lambda args: print(
            obs.explain_server(obs.read_audit_jsonl(args.audit_log), args.server)
        )
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    args = build_parser().parse_args(argv)
    log_level = args.log_level or os.environ.get("REPRO_LOG_LEVEL")
    if log_level:
        obs.configure_logging(log_level)
    try:
        return args.run(args) or 0
    except BrokenPipeError:
        # the reader closed the pipe mid-print: point stdout at devnull
        # so the interpreter's exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as exc:
        if args.command == "experiments":
            raise  # a runner's failure keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


def assess_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro-assess`` console script."""
    return main(["assess", *(sys.argv[1:] if argv is None else argv)])


# ---------------------------------------------------------------------- #
# repro assess


def _add_assess_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("feedback_file", type=Path, help="CSV or JSONL feedback log")
    parser.add_argument(
        "--test",
        choices=_TEST_CHOICES,
        default="multi",
        help="phase-1 behavior test (default: multi)",
    )
    parser.add_argument(
        "--trust",
        choices=[n for n in available_trust_functions() if n not in ("peertrust", "eigentrust", "htrust")],
        default="average",
        help="phase-2 trust function (default: average)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.9, help="client trust threshold"
    )
    parser.add_argument(
        "--window", type=int, default=10, help="behavior-test window size m"
    )
    parser.add_argument(
        "--confidence", type=float, default=0.95, help="threshold confidence level"
    )
    parser.add_argument(
        "--server",
        action="append",
        default=None,
        help="assess only this server (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="output format (default: table)",
    )
    parser.add_argument(
        "--audit-out",
        type=Path,
        default=None,
        help="write per-assessment audit records (JSONL) to this path; "
        "inspect them with `repro explain <server> <path>`",
    )
    parser.add_argument(
        "--audit-sample",
        type=int,
        default=1,
        help="record every Nth assessment decision (default: 1 = all)",
    )


def _make_test(name: str, config: BehaviorTestConfig):
    # The CLI's historical "collusion" means the single-test wrapper; the
    # core registry's "collusion" alias points at the multi-test one.
    registry_name = "collusion-single" if name == "collusion" else name
    return make_behavior_test(registry_name, config=config)


def _maybe_audit(args):
    """Audit session writing to ``--audit-out``, or a no-op context."""
    if args.audit_out is None:
        import contextlib

        return contextlib.nullcontext()
    from .obs import audit

    if args.audit_sample < 1:
        raise ValueError("--audit-sample must be >= 1")
    return audit.audit_session(
        sample_every=args.audit_sample,
        path=args.audit_out,
        run_meta={"tool": "repro-assess", "feedback_file": str(args.feedback_file)},
    )


def _failure_detail(behavior) -> str:
    # Most specific first: MultiTestReport is itself a BehaviorVerdict.
    if isinstance(behavior, MultiTestReport) and behavior.first_failure:
        length, verdict = behavior.first_failure
        return (
            f"(suffix {length}: distance {verdict.distance:.2f} > "
            f"eps {verdict.threshold:.2f})"
        )
    if isinstance(behavior, BehaviorVerdict):
        return f"(distance {behavior.distance:.2f} > eps {behavior.threshold:.2f})"
    return ""


def _assess(args) -> int:
    feedbacks = read(args.feedback_file)  # format resolved by extension, then content
    if not feedbacks:
        raise ValueError("no feedback records found")

    by_server: Dict[str, List[Feedback]] = defaultdict(list)
    for fb in feedbacks:
        by_server[fb.server].append(fb)
    servers = args.server if args.server else sorted(by_server)
    unknown = [s for s in servers if s not in by_server]
    if unknown:
        raise ValueError(f"no feedback for server(s) {unknown}")

    config = BehaviorTestConfig(window_size=args.window, confidence=args.confidence)
    assessor = TwoPhaseAssessor(
        behavior_test=_make_test(args.test, config),
        trust_function=make_trust_function(args.trust),
        trust_threshold=args.threshold,
    )

    rows = []
    any_suspicious = False
    with _maybe_audit(args):
        for server in servers:
            history = TransactionHistory.from_feedbacks(by_server[server])
            result = assessor.assess(history)
            any_suspicious = (
                any_suspicious or result.status is AssessmentStatus.SUSPICIOUS
            )
            rows.append((server, len(history), result))
    if args.audit_out is not None:
        print(f"audit records written to {args.audit_out}", file=sys.stderr)

    if args.format == "json":
        payload = [
            {
                "server": server,
                "transactions": n,
                "status": result.status.value,
                "trust": result.trust_value,
                "detail": (
                    _failure_detail(result.behavior)
                    if result.status is AssessmentStatus.SUSPICIOUS
                    else ""
                ),
            }
            for server, n, result in rows
        ]
        print(json.dumps(payload, indent=2))
        return 2 if any_suspicious else 0

    width = max(len("server"), *(len(s) for s in servers))
    print(f"{'server':{width}s}  {'n':>6s}  {'trust':>7s}  verdict")
    for server, n, result in rows:
        if result.status is AssessmentStatus.SUSPICIOUS:
            verdict = f"SUSPICIOUS {_failure_detail(result.behavior)}".rstrip()
            trust_text = "-"
        else:
            verdict = result.status.value
            trust_text = f"{result.trust_value:.3f}"
        print(f"{server:{width}s}  {n:>6d}  {trust_text:>7s}  {verdict}")

    return 2 if any_suspicious else 0


# ---------------------------------------------------------------------- #
# repro obs ...


def _obs_report(args) -> int:
    print(obs.render_artifact(args.artifact))
    return 0


def _obs_diff(args) -> int:
    if args.candidate is None:
        # single-path form: the argument is the candidate; diff it
        # against the committed benchmarks/baselines/BENCH_<bench>.json.
        cand_payload = obs.read_bench_json(args.baseline)
        default = DEFAULT_BASELINES / f"BENCH_{cand_payload['bench']}.json"
        if not default.exists():
            raise ValueError(
                f"no committed baseline {default} for bench "
                f"{cand_payload['bench']!r}; pass an explicit baseline"
            )
        base_payload = obs.read_bench_json(default)
    else:
        base_payload = obs.read_bench_json(args.baseline)
        cand_payload = obs.read_bench_json(args.candidate)
    diff = obs.compare_bench_payloads(
        base_payload, cand_payload, max_regression=args.max_regression
    )
    print(obs.render_bench_diff(diff))
    return 0 if diff["ok"] else 2


def _obs_trace(args) -> int:
    spans = obs.read_span_jsonl(args.spans)
    if args.trace_id is not None:
        print(obs.render_trace_tree(spans, args.trace_id))
        return 0
    ids = obs.trace_ids(spans)
    if not ids:
        raise ValueError(f"no spans in {args.spans}")
    counts = Counter(span["trace_id"] for span in spans)
    print(f"{len(ids)} trace(s) in {args.spans}:")
    for tid in ids:
        print(f"  {tid}  ({counts[tid]} spans)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
