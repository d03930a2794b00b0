"""Fig. 9 — running time of behavior testing vs. initial history size.

The paper measures single-behavior testing (O(n)) and the *optimized*
multi-behavior testing (O(n), reusing suffix statistics) on histories of
100k-800k transactions, plus notes that the naive multi-testing scheme is
O(n^2).  We time all three; the naive variant is measured on smaller
histories (its quadratic blow-up makes 800k pointless to wait for) so
the scaling contrast is visible without hour-long runs.

Timings flow through the :mod:`repro.obs` layer rather than ad-hoc
``perf_counter`` calls: every measured call runs under an
``experiments.fig9.test_seconds`` timer (labelled by scheme and history
size), the whole sweep is covered by nested spans so a trace export
shows where the wall time went, and ``bench_path=`` emits the
machine-readable ``BENCH_fig9.json`` artifact (see
:mod:`repro.obs.bench`) that CI uploads and future PRs diff against.

Absolute milliseconds obviously differ from the paper's 2008 desktop —
the reproduced claim is the *linear* scaling of the optimized schemes
and the quadratic scaling of the naive one.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Optional, Sequence, Union

from .. import obs
from ..core.config import BehaviorTestConfig
from ..core.incremental import IncrementalBehaviorState
from ..core.model import generate_honest_outcomes
from ..core.multi_testing import MultiBehaviorTest
from ..core.testing import SingleBehaviorTest
from ..feedback.history import TransactionHistory
from .common import ExperimentResult, make_shared_calibrator

__all__ = ["run_fig9", "HISTORY_SIZES", "NAIVE_HISTORY_SIZES"]

HISTORY_SIZES = (100_000, 200_000, 400_000, 800_000)
NAIVE_HISTORY_SIZES = (10_000, 20_000, 40_000)

_TIMER_METRIC = "experiments.fig9.test_seconds"
_ENGINES = ("batch", "incremental")


def run_fig9(
    *,
    history_sizes: Optional[Sequence[int]] = None,
    naive_sizes: Optional[Sequence[int]] = None,
    multi_step: int = 1000,
    repeats: int = 3,
    base_seed: int = 2008,
    quick: bool = False,
    bench_path: Optional[str] = None,
    events_path: Optional[str] = None,
    profile_path: Optional[str] = None,
    profile_sample_hz: float = 97.0,
    engine: str = "batch",
) -> ExperimentResult:
    """Reproduce Fig. 9 (seconds per behavior test).

    When ``bench_path`` is given, a schema-validated ``BENCH_fig9.json``
    (scheme → history size → mean/min seconds) is written there through
    the :mod:`repro.obs.bench` layer.  ``events_path`` streams progress
    heartbeats (one per timed measurement) to a JSONL log for
    ``repro obs top``; ``profile_path`` runs the sweep under a phase
    profiler and writes both ``PROFILE_fig9.json`` and the sibling
    flamegraph-ready ``.folded`` file.

    ``engine="incremental"`` additionally times the serving fast path
    (:class:`~repro.core.incremental.IncrementalBehaviorState`): seconds
    to re-judge after one new *window* of feedback arrived, the
    amortized cost the batch schemes re-pay in full.  The extra
    ``multi_incremental_s`` column only appears in this mode (the
    default column list is pinned), and the incremental verdict is
    asserted identical to ``multi_optimized``'s at every size.
    """
    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
    if history_sizes is None:
        history_sizes = (10_000, 50_000, 100_000) if quick else HISTORY_SIZES
    if naive_sizes is None:
        naive_sizes = (2_000, 5_000) if quick else NAIVE_HISTORY_SIZES
    if quick:
        repeats = 1
    # A larger multi-testing step keeps the number of rounds in the
    # hundreds at 800k transactions, mirroring the paper's large-history
    # setting; the calibration cache is pre-shared across schemes.
    config = BehaviorTestConfig(multi_step=multi_step)
    calibrator = make_shared_calibrator(config)
    single = SingleBehaviorTest(config, calibrator)
    # collect_all=True: every suffix round always runs, so the timing
    # measures a fixed amount of work rather than an early-stop that
    # depends on whether some round happened to fail.
    multi_fast = MultiBehaviorTest(
        config, calibrator, strategy="optimized", collect_all=True
    )
    multi_naive = MultiBehaviorTest(
        config, calibrator, strategy="naive", collect_all=True
    )

    columns = ["history_size", "single_s", "multi_optimized_s", "multi_naive_s"]
    notes = (
        f"multi-testing step k={multi_step}; best of {repeats} runs; "
        "naive multi-testing timed only at the sizes listed (O(n^2))"
    )
    if engine == "incremental":
        # Engine-mode column is strictly additive: the default column
        # list above is pinned by downstream consumers.
        columns.append("multi_incremental_s")
        notes += "; incremental column: re-judge after one new window"
    result = ExperimentResult(
        experiment="fig9",
        title="Behavior-testing running time vs. history size (seconds)",
        columns=columns,
        notes=notes,
    )

    # Measure through the obs layer: reuse the ambient session when the
    # caller already enabled collection (so its tracer sees our spans),
    # otherwise activate a private scoped session just for this sweep.
    if obs.is_enabled():
        scope = contextlib.nullcontext(
            obs.ObsSession(obs.get_registry(), obs.get_tracer())
        )
    else:
        scope = obs.activate()
    run_meta = obs.run_metadata(
        seed=base_seed,
        config=config,
        experiment="fig9",
        quick=quick,
        multi_step=multi_step,
        repeats=repeats,
    )
    log = (
        obs.EventLog(events_path, run_meta=run_meta)
        if events_path is not None
        else None
    )
    if profile_path is not None:
        # Out-of-band periodic sampling: the profiled thread pays
        # nothing per call, so the <10% overhead bound asserted in
        # benchmarks/ holds for exactly this configuration.
        profile_scope = obs.profile_session(sample_hz=profile_sample_hz)
    else:
        profile_scope = contextlib.nullcontext()

    bench_rows: List[Dict[str, object]] = []
    naive_set = set(naive_sizes)
    sizes = sorted(set(history_sizes) | naive_set)
    monitor = None
    if log is not None:
        per_size = (3 if engine == "incremental" else 2)
        total = sum(
            max(repeats, 1) * (per_size + (1 if n in naive_set else 0))
            for n in sizes
        )
        monitor = obs.ProgressMonitor(
            log,
            total=total,
            label="measurements",
            interval_seconds=None,
            interval_ticks=1,
        )
        monitor.start(experiment="fig9")
    with scope as session, profile_scope as profiler:
        registry = session.registry
        with obs.span("experiments.fig9.run", quick=quick):
            for n in sizes:
                with obs.span("experiments.fig9.prepare", history_size=n):
                    outcomes = generate_honest_outcomes(n, 0.95, seed=base_seed)
                    # Warm the threshold cache so timings measure the
                    # algorithms, not one-off Monte-Carlo calibrations.
                    single.test(outcomes)
                    multi_fast.test(outcomes)
                    state = None
                    if engine == "incremental":
                        # Dry-run the exact fold/judge sequence once so the
                        # grown history lengths' ε-thresholds are calibrated
                        # before timing, like the batch warm-up above.
                        warm = IncrementalBehaviorState(
                            multi_fast, TransactionHistory.from_outcomes(outcomes)
                        )
                        warm.verdict()
                        for _ in range(max(repeats, 1)):
                            for _ in range(config.window_size):
                                warm.fold(1)
                            warm.verdict()
                        state = IncrementalBehaviorState(
                            multi_fast, TransactionHistory.from_outcomes(outcomes)
                        )
                        state.verdict()  # warm the window-count cache
                schemes = [
                    ("single", single.test),
                    ("multi_optimized", multi_fast.test),
                ]
                if n in naive_set:
                    schemes.append(("multi_naive", multi_naive.test))
                if state is not None:

                    def fold_window_and_judge(
                        _ignored, _state=state, _m=config.window_size
                    ):
                        # One new window of feedback, then re-judge: the
                        # cached counts extend O(m) and the suffix walk
                        # re-runs over them — the serving amortized cost.
                        for _ in range(_m):
                            _state.fold(1)
                        return _state.verdict()

                    schemes.append(("multi_incremental", fold_window_and_judge))
                row: Dict[str, Union[int, float]] = {
                    "history_size": n,
                    "multi_naive_s": float("nan"),
                }
                for scheme, fn in schemes:
                    with obs.span(
                        "experiments.fig9.measure", scheme=scheme, history_size=n
                    ):
                        for _ in range(max(repeats, 1)):
                            with obs.timer(
                                _TIMER_METRIC, scheme=scheme, history_size=n
                            ):
                                fn(outcomes)
                            if monitor is not None:
                                monitor.tick(1, tests=1)
                    hist = registry.histogram(
                        _TIMER_METRIC, scheme=scheme, history_size=n
                    )
                    row[f"{scheme}_s"] = hist.min
                    bench_rows.append(
                        {
                            "name": scheme,
                            "params": {"history_size": n},
                            "stats": {
                                "mean_s": hist.mean,
                                "min_s": hist.min,
                                # tail latency, preferred by `repro obs diff`
                                "p95_s": hist.p95,
                                "repeats": hist.count,
                            },
                        }
                    )
                if state is not None:
                    # The serving path must be bit-identical to the batch
                    # scheme on the history it grew to.
                    expected = multi_fast.test(state.history)
                    if state.verdict() != expected:
                        raise AssertionError(
                            "incremental verdict diverged from batch "
                            f"multi-testing at history_size={n}"
                        )
                result.add_row(**row)
            if bench_path is not None:
                with obs.span("experiments.fig9.export"):
                    obs.write_bench_json(bench_path, "fig9", bench_rows, meta=run_meta)
        if log is not None:
            log.emit_metrics(registry)
    if profile_path is not None and profiler is not None:
        obs.write_profile_json(profile_path, "fig9", profiler, meta=run_meta)
        obs.write_folded(obs.folded_path_for(profile_path), profiler)
    if monitor is not None:
        monitor.finish(experiment="fig9")
    if log is not None:
        log.emit("run_end", experiment="fig9")
        log.close()
    return result
