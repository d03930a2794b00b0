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

from typing import Dict, Optional, Sequence, Union

from .. import obs
from ..core.config import BehaviorTestConfig
from ..core.incremental import IncrementalBehaviorState
from ..core.model import generate_honest_outcomes
from ..core.multi_testing import MultiBehaviorTest
from ..core.testing import SingleBehaviorTest
from ..feedback.history import TransactionHistory
from .common import ExperimentResult, ExperimentRun, make_shared_calibrator

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
    trace_path: Optional[str] = None,
    engine: str = "batch",
) -> ExperimentResult:
    """Reproduce Fig. 9 (seconds per behavior test).

    When ``bench_path`` is given, a schema-validated ``BENCH_fig9.json``
    (scheme → history size → mean/min seconds) is written there through
    the :mod:`repro.obs.bench` layer.  ``events_path`` writes the run's
    lifecycle events to a JSONL log; ``trace_path`` writes its spans as
    a JSONL span log, whose phase table (``repro obs report``) says
    where the time went.

    ``engine="incremental"`` additionally times the serving fast path
    (:class:`~repro.core.incremental.IncrementalBehaviorState`): seconds
    to fold one new *window* of feedback and re-judge — the suffix walk
    over the grown history plus the per-event folds, so it tracks
    ``multi_optimized_s``.  The extra
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

    naive_set = set(naive_sizes)
    sizes = sorted(set(history_sizes) | naive_set)
    with ExperimentRun(
        "fig9",
        seed=base_seed,
        config=config,
        meta={"quick": quick, "multi_step": multi_step, "repeats": repeats},
        bench_path=bench_path,
        events_path=events_path,
        trace_path=trace_path,
    ) as run:
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
                    state.verdict()  # warm the verdict memo
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
                    # grown history's window counts are taken afresh and
                    # the suffix walk re-runs over them.
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
                hist = run.registry.histogram(
                    _TIMER_METRIC, scheme=scheme, history_size=n
                )
                row[f"{scheme}_s"] = hist.min
                run.bench_row(hist, scheme, {"history_size": n})
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
    return result
