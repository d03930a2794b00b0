"""Tests for repro.core.collusion (issuer-grouped reordering and tests)."""

import numpy as np
import pytest

from repro.core.collusion import (
    CollusionResilientMultiTest,
    CollusionResilientTest,
    reorder_by_issuer,
    reordered_outcomes,
)
from repro.core.model import generate_honest_outcomes
from repro.feedback.history import TransactionHistory
from repro.feedback.records import Feedback, Rating


def _fb(t, client, good=True, server="s"):
    return Feedback(
        time=float(t),
        server=server,
        client=client,
        rating=Rating.POSITIVE if good else Rating.NEGATIVE,
    )


def _honest_feedbacks(n, p, n_clients, seed, server="s"):
    """An honest server's feedbacks: many distinct clients, iid quality."""
    rng = np.random.default_rng(seed)
    return [
        _fb(
            t,
            f"c{int(rng.integers(0, n_clients))}",
            good=bool(rng.random() < p),
            server=server,
        )
        for t in range(n)
    ]


def _collusion_feedbacks(prep, cheats, seed, server="s"):
    """Colluder-boosted attacker: 5 colluders give positives; victims get cheated."""
    rng = np.random.default_rng(seed)
    feedbacks = []
    t = 0
    for _ in range(prep):
        feedbacks.append(_fb(t, f"colluder{t % 5}", good=True, server=server))
        t += 1
    for i in range(cheats):
        feedbacks.append(_fb(t, f"victim{i}", good=False, server=server))
        # a colluder positive after each cheat keeps the ratio high
        t += 1
        feedbacks.append(_fb(t, f"colluder{t % 5}", good=True, server=server))
        t += 1
    return feedbacks


class TestReorder:
    def test_bigger_groups_first(self):
        feedbacks = [
            _fb(1, "a"),
            _fb(2, "b"),
            _fb(3, "a"),
            _fb(4, "c"),
            _fb(5, "a"),
            _fb(6, "b"),
        ]
        reordered = reorder_by_issuer(feedbacks)
        clients = [fb.client for fb in reordered]
        assert clients == ["a", "a", "a", "b", "b", "c"]

    def test_time_order_within_group(self):
        feedbacks = [_fb(3, "a"), _fb(1, "a"), _fb(2, "a")]
        reordered = reorder_by_issuer(feedbacks)
        assert [fb.time for fb in reordered] == [1.0, 2.0, 3.0]

    def test_tie_break_by_first_feedback_time(self):
        feedbacks = [_fb(2, "late"), _fb(1, "early")]
        reordered = reorder_by_issuer(feedbacks)
        assert [fb.client for fb in reordered] == ["early", "late"]

    def test_preserves_multiset(self):
        feedbacks = _honest_feedbacks(100, 0.9, 10, seed=1)
        reordered = reorder_by_issuer(feedbacks)
        assert sorted(f.time for f in reordered) == sorted(f.time for f in feedbacks)

    def test_deterministic(self):
        feedbacks = _honest_feedbacks(60, 0.9, 8, seed=2)
        a = reordered_outcomes(feedbacks)
        b = reordered_outcomes(feedbacks)
        np.testing.assert_array_equal(a, b)

    def test_empty(self):
        assert reorder_by_issuer([]) == []
        assert reordered_outcomes([]).size == 0


class TestCollusionResilientSingle:
    def test_honest_server_passes(self, paper_config, shared_calibrator):
        test_ = CollusionResilientTest(paper_config, shared_calibrator)
        history = TransactionHistory.from_feedbacks(
            _honest_feedbacks(600, 0.95, 40, seed=3)
        )
        assert test_.test(history).passed

    def test_colluder_boosted_attacker_fails(self, paper_config, shared_calibrator):
        test_ = CollusionResilientTest(paper_config, shared_calibrator)
        history = TransactionHistory.from_feedbacks(
            _collusion_feedbacks(prep=200, cheats=20, seed=4)
        )
        # overall ratio is high (220 positives / 20 negatives) but the
        # reordering concentrates the victims' negatives in the tail
        assert history.p_hat > 0.9
        assert not test_.test(history).passed

    def test_bare_outcome_history_rejected(self, paper_config, shared_calibrator):
        test_ = CollusionResilientTest(paper_config, shared_calibrator)
        history = TransactionHistory.from_outcomes([1] * 100)
        with pytest.raises(ValueError):
            test_.test(history)

    def test_accepts_raw_feedback_list(self, paper_config, shared_calibrator):
        test_ = CollusionResilientTest(paper_config, shared_calibrator)
        assert test_.test(_honest_feedbacks(400, 0.95, 30, seed=5)).passed


class TestCollusionResilientMulti:
    def test_honest_server_passes(self, paper_config, shared_calibrator):
        test_ = CollusionResilientMultiTest(paper_config, shared_calibrator)
        history = TransactionHistory.from_feedbacks(
            _honest_feedbacks(500, 0.95, 40, seed=6)
        )
        assert test_.test(history).passed

    def test_recent_collusion_caught_despite_long_history(
        self, paper_config, shared_calibrator
    ):
        # long honest past, then a colluder-covered cheating spree: the
        # time-recent suffixes expose it
        honest_past = _honest_feedbacks(2000, 0.95, 60, seed=7)
        spree = _collusion_feedbacks(prep=0, cheats=15, seed=8)
        shifted = [
            Feedback(
                time=2000.0 + fb.time,
                server=fb.server,
                client=fb.client,
                rating=fb.rating,
            )
            for fb in spree
        ]
        history = TransactionHistory.from_feedbacks(honest_past + shifted)
        report = CollusionResilientMultiTest(paper_config, shared_calibrator).test(
            history
        )
        assert not report.passed

    def test_suffix_schedule_matches_plain_multi(self, paper_config, shared_calibrator):
        test_ = CollusionResilientMultiTest(paper_config, shared_calibrator)
        assert test_.config.suffix_lengths(200) == [200, 150, 100, 50]

    def test_insufficient_history(self, paper_config, shared_calibrator):
        test_ = CollusionResilientMultiTest(paper_config, shared_calibrator)
        history = TransactionHistory.from_feedbacks(
            _honest_feedbacks(30, 0.9, 5, seed=9)
        )
        report = test_.test(history)
        assert report.passed
        assert report.rounds[0][1].insufficient

    def test_rounds_longest_first(self, paper_config, shared_calibrator):
        test_ = CollusionResilientMultiTest(
            paper_config, shared_calibrator, collect_all=True
        )
        history = TransactionHistory.from_feedbacks(
            _honest_feedbacks(240, 0.95, 20, seed=10)
        )
        lengths = [length for length, _ in test_.test(history).rounds]
        assert lengths == sorted(lengths, reverse=True)
