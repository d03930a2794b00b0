"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --self-check --workload cluster_quorum --runs 5

``--trace 0`` measures the end-to-end metrics with tracing off and
``repro.obs`` disabled.  ``--trace 1`` runs the workload twice in the
same process — untraced, then traced over the same number of units —
and reports the per-layer metrics, a per-layer self-time table and the
tracing overhead (traced minus untraced wall time).  Every timing is
reported at reference machine speed (see ``Measurement.slowdown``).
``--self-check``
runs the workload repeatedly in fresh processes and prints each
end-to-end metric's median and quartile spread against its bound.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def _pin_hash_seed() -> None:
    """Re-execute under a fixed string-hash seed, so set and dict orders
    (and the work that follows them) repeat from run to run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def _args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--runs", type=int, default=5, help="self-check runs")
    return parser.parse_args(argv)


def _import_program():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: found repro at {repro.__file__}, not in {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)


def _percentile(values, pct: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def end_to_end(workload, m) -> dict:
    """The end-to-end metrics, every timing at reference machine speed
    (see ``Measurement.slowdown``)."""
    from perfbench.workloads import PROBE_REFERENCE_S

    queries = m.at_reference(m.queries, 0)
    tail = _percentile(queries, workload.tail_pct)
    beyond = sum(q > tail for q in queries)
    slowdowns = sorted(p / PROBE_REFERENCE_S for p in m.probes)
    print(
        f"machine slowdown over reference, p5/p50/p95: {slowdowns[len(slowdowns) // 20]:.2f}/"
        f"{slowdowns[len(slowdowns) // 2]:.2f}/{slowdowns[len(slowdowns) * 19 // 20]:.2f}"
    )
    print(
        f"query_tail_ms is p{workload.tail_pct:g} of {len(queries)} requests "
        f"({beyond} beyond it)"
    )
    values = {
        "setup_s": (statistics.median(m.at_reference(m.setup, 0)), "s"),
        "ingest_evps": (m.rate(m.ingest), "events/s"),
        "verdicts_per_s": (m.rate(m.verdicts), "verdicts/s"),
        "query_p50_ms": (statistics.median(queries), "ms"),
        "query_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _at_reference(m) -> float:
    from perfbench.workloads import PROBE_REFERENCE_S

    return m.measured_s * PROBE_REFERENCE_S / statistics.median(m.probes)


def _print_checks(m) -> None:
    for name, (checked, mismatched) in sorted(m.checks.items()):
        print(f"check {name}: {checked - mismatched}/{checked} match")
    rate = m.failed / m.attempted if m.attempted else 0.0
    print(f"error_rate = {m.failed}/{m.attempted} = {rate:.6f} (failed / attempted)")


def run_timed(workload, args) -> dict:
    from perfbench.workloads import make_workdir, remove_workdir

    workdir = make_workdir(OUT)
    try:
        m = workload.run(args.seed, seconds=args.seconds, workdir=workdir)
    finally:
        remove_workdir(workdir)
    metrics = end_to_end(workload, m)
    print(f"{workload.name}: {m.units} units in {m.measured_s:.3f} s measured")
    for name, metric in metrics.items():
        print(f"  {name:<16} {metric['value']:>14.4f} {metric['unit']}")
    _print_checks(m)
    return {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}


def run_traced(workload, args) -> dict:
    from perfbench import layers
    from perfbench.tracing import Tracer
    from perfbench.workloads import make_workdir, remove_workdir

    workdir = make_workdir(OUT)
    try:
        plain = workload.run(args.seed, seconds=args.seconds, setups=1, workdir=workdir)
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = workload.run(
                args.seed,
                units=plain.units,
                setups=1,
                workdir=workdir,
                before_check=lambda: layers.stop(tracer),
            )
        finally:
            tracer.uninstall()
    finally:
        remove_workdir(workdir)
    values = layers.per_layer_metrics(tracer, traced.counts)
    # both passes' wall times at reference speed, so a slowed machine
    # during one pass does not read as tracing cost
    plain_s, traced_s = _at_reference(plain), _at_reference(traced)
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_ratio"] = values["trace.overhead_s"] / plain_s if plain_s else 0.0
    spans_path = OUT / f"spans-{workload.name}.npz"
    tracer.write(spans_path)

    print(
        f"{workload.name}: {traced.units} units; measured {plain_s:.3f} s untraced, "
        f"{traced_s:.3f} s traced at reference speed "
        f"(overhead {values['trace.overhead_ratio']:+.1%}); spans in {spans_path.name}"
    )
    self_times = layers.layer_self_times(tracer)
    total = sum(self_times.values())
    print(f"  {'layer':<10} {'self_s':>10} {'share':>7}")
    for layer, seconds in sorted(self_times.items(), key=lambda kv: -kv[1]):
        share = seconds / total if total else 0.0
        print(f"  {layer:<10} {seconds:>10.4f} {share:>7.1%}")
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    for name, value in values.items():
        if units[name] in ("ratio", "bytes") or value:
            print(f"  {name:<42} {value:>14.6g} {units[name]}")
    violations = layers.idle_violations(workload.name, values)
    print(
        "prediction (cluster.*/p2p.* only on cluster_quorum, adversary.* only on "
        f"attack_campaigns): {'holds' if not violations else 'VIOLATED by ' + ', '.join(violations)}"
    )
    failed = plain.failed + traced.failed + len(violations)
    attempted = plain.attempted + traced.attempted + len(values)
    _print_checks(traced)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def self_check(args) -> int:
    """Run the workload ``--runs`` times and report spread against bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    samples = {name: [] for name in bounds}
    for i in range(args.runs):
        seed = args.seed + i
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        ))
        for name in bounds:
            samples[name].append(result["metrics"][name]["value"])
    worst = 0.0
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, values in samples.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        ok = "ok" if spread <= bounds[name] / 3 else ("near" if spread <= bounds[name] else "WIDE")
        if name != "setup_s":
            worst = max(worst, spread / bounds[name])
        print(f"{name:<16} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {bounds[name]:>6} {ok}")
    return 0 if worst <= 1.0 else 1


def main(argv=None) -> int:
    args = _args(argv)
    if args.self_check:
        return self_check(args)
    _pin_hash_seed()
    _import_program()
    from perfbench.workloads import WORKLOADS
    from repro.obs import runtime as obs_runtime

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    obs_runtime.disable()
    workload = WORKLOADS[args.workload]
    print(f"{workload.name}: {workload.why}")
    result = (run_traced if args.trace else run_timed)(workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
