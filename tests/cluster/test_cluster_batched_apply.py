"""The batched replica write path equals folding one event at a time.

``ClusterNode.apply_events`` folds a message per server run.  An armed
fault plan sends it down the event-at-a-time path instead, so a plan
that arms no site is the reference: same skips, same ledger, same
digests.  The digests themselves must be stable across processes and
must depend on the order of tied events.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.cluster import ClusterNode, ReplicaBatch, ShardState, event_digest
from repro.cluster.node import DigestRuns, rolling_digest
from repro.feedback.records import Feedback, Rating
from repro.obs.events import EventLog
from repro.p2p.network import SimulatedNetwork
from repro.resilience import FaultPlan
from repro.resilience import runtime as res

from .conftest import CLUSTER_CONFIG, make_cluster

SERVERS = ("srv-a", "srv-b", "srv-c")
CLIENTS = ("cli-0", "cli-1")

events = st.builds(
    Feedback,
    time=st.integers(0, 6).map(float),
    server=st.sampled_from(SERVERS),
    client=st.sampled_from(CLIENTS),
    rating=st.sampled_from([Rating.POSITIVE, Rating.NEGATIVE]),
)


def _node() -> ClusterNode:
    network = SimulatedNetwork(name="batched-apply")
    return ClusterNode("node", network, config=CLUSTER_CONFIG)


def _rows(feedbacks):
    """Each event's full content, in order (a columnar replica hands
    out fresh ``Feedback`` objects, and their equality looks at time
    only)."""
    return [
        (fb.time, fb.server, fb.client, fb.rating, fb.category, fb.authentic)
        for fb in feedbacks
    ]


def _fold(messages, *, one_at_a_time: bool):
    node = _node()
    skipped = {"below_watermark": 0, "duplicate_digest": 0}
    applied = 0
    for message in messages:
        if one_at_a_time:
            with res.activate(FaultPlan(seed=0)):
                for feedback in message:
                    applied += node.apply_events([feedback], skipped)
        else:
            applied += node.apply_events(message, skipped)
    return node, skipped, applied


@settings(max_examples=150, deadline=None)
@given(
    messages=st.lists(st.lists(events, max_size=12), max_size=6),
    redeliver=st.lists(st.integers(0, 5), max_size=3),
)
def test_batched_fold_equals_one_event_at_a_time(messages, redeliver):
    """Interleaved servers, exact duplicates at the watermark (equal
    content, and the same record delivered again) and back-dated
    events all fold exactly as the event-at-a-time path folds them."""
    messages = messages + [messages[i] for i in redeliver if i < len(messages)]
    batched, skipped, applied = _fold(messages, one_at_a_time=False)
    reference, ref_skipped, ref_applied = _fold(messages, one_at_a_time=True)

    assert applied == ref_applied
    assert skipped == ref_skipped
    assert applied + sum(skipped.values()) == sum(len(m) for m in messages)
    assert sorted(batched.shards) == sorted(reference.shards)
    for server in reference.shards:
        assert _rows(batched.events_of(server)) == _rows(reference.events_of(server))
        assert batched.digest_of(server) == reference.digest_of(server)
        got, want = batched.shards[server], reference.shards[server]
        assert (got.n, got.last_time) == (want.n, want.last_time)
        assert got.tie_digests == want.tie_digests
        assert list(batched.ledger.history(server).outcomes()) == list(
            reference.ledger.history(server).outcomes()
        )
    # the ledger keeps arrival order across servers, too
    assert len(batched.ledger) == len(reference.ledger)
    for client in CLIENTS:
        assert _rows(batched.ledger.feedbacks_by_client(client)) == _rows(
            reference.ledger.feedbacks_by_client(client)
        )
    assert sorted(batched.service.servers()) == sorted(reference.service.servers())


def test_skips_are_counted_by_reason():
    node = _node()
    late = Feedback(time=1.0, server="srv-a", client="cli-0", rating=Rating.POSITIVE)
    stream = [
        Feedback(time=float(t), server="srv-a", client="cli-0", rating=Rating.POSITIVE)
        for t in range(3)
    ]
    skipped = {}
    assert node.apply_events(stream, skipped) == 3
    assert node.apply_events([late, stream[-1]], skipped) == 0
    assert skipped == {"below_watermark": 1, "duplicate_digest": 1}


def test_reset_to_an_empty_stream_forgets_the_served_history():
    """After a reset to nothing, a replica judges only what arrives
    next, exactly as a node that was fed just those events."""

    def events(times, bad=()):
        return [
            Feedback(
                time=float(t),
                server="srv-a",
                client=CLIENTS[t % 2],
                rating=Rating.NEGATIVE if t in bad else Rating.POSITIVE,
            )
            for t in times
        ]

    node, fresh = _node(), _node()
    node.apply_events(events(range(5), bad=(1, 3)))
    node.service.assess_many(["srv-a"])  # memoize the old verdict
    node.reset_server("srv-a", [])
    node.apply_events(events(range(10, 13)))
    fresh.apply_events(events(range(10, 13)))
    assert len(node.ledger.history("srv-a")) == 3
    assert node.service.assess_many(["srv-a"]) == fresh.service.assess_many(["srv-a"])


def _tied(client: str) -> Feedback:
    return Feedback(time=5.0, server="srv-a", client=client, rating=Rating.POSITIVE)


def test_tied_events_in_another_order_give_another_digest():
    """Order-blind digests would hide replicas whose windows differ."""
    first, second = _tied("cli-0"), _tied("cli-1")
    one, other = _node(), _node()
    assert one.apply_events([first, second]) == 2
    assert other.apply_events([second, first]) == 2
    assert one.shards["srv-a"].tie_digests == other.shards["srv-a"].tie_digests
    assert one.digest_of("srv-a") != other.digest_of("srv-a")


def test_reordered_tie_on_a_replica_triggers_read_repair():
    cluster = make_cluster()
    base = Feedback(time=1.0, server="srv-a", client="cli-9", rating=Rating.POSITIVE)
    cluster.record_batch([base])
    pref = cluster._ring.preference_list("srv-a")
    tie = [_tied("cli-0"), _tied("cli-1")]
    for i, member in enumerate(pref):
        cluster._members[member].apply_events(tie if i == 0 else tie[::-1])
    assert len({cluster._members[m].digest_of("srv-a") for m in pref}) > 1
    log = EventLog()
    with res.activate(None, log):
        cluster.assess_many(["srv-a"])
    assert "cluster_read_repair" in [e["event"] for e in log.events]
    assert len({cluster._members[m].digest_of("srv-a") for m in pref}) == 1


ids = st.text(min_size=1, max_size=5)
twin_events = st.builds(
    Feedback,
    time=st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, 2.0**60, -(2.0**60), 1e300, 5e-324]),
    ),
    server=ids,
    client=ids,
    rating=st.sampled_from([Rating.POSITIVE, Rating.NEGATIVE]),
    category=st.one_of(st.none(), ids),
    authentic=st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(feedbacks=st.lists(twin_events, max_size=25))
def test_digest_column_equals_event_digest(feedbacks):
    """The numpy digest column and the scalar digest agree bit for bit
    (a mismatch would make anti-entropy reset healthy replicas): ``None``
    and named categories, unauthentic events, non-ASCII ids, ``-0.0``
    against ``0.0`` and large times."""
    batch = ReplicaBatch.from_feedbacks(feedbacks)
    assert batch.digests.dtype == np.uint64
    assert batch.digests.tolist() == [event_digest(fb) for fb in feedbacks]


def test_signed_zero_times_are_different_events():
    zero, negative_zero = (
        Feedback(time=t, server="srv-é", client="cli-☃", rating=Rating.POSITIVE)
        for t in (0.0, -0.0)
    )
    digests = ReplicaBatch.from_feedbacks([zero, negative_zero]).digests.tolist()
    assert digests == [event_digest(zero), event_digest(negative_zero)]
    assert digests[0] != digests[1]


@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(
        st.tuples(
            st.integers(0, 2**64 - 1),
            st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, 2**64 - 1)),
                min_size=1,
                max_size=8,
            ),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_reduceat_roll_equals_rolling_digest(runs):
    """``ShardState.applied`` rolls every run at once; each state ends as
    folding its run's digests one at a time would leave it."""
    states, times, digests, bounds = [], [], [], [0]
    for head, events in runs:
        state = ShardState()
        state.content_hash = head
        states.append(state)
        events = sorted(events, key=lambda event: event[0])
        times += [float(t) for t, _ in events]
        digests += [d for _, d in events]
        bounds.append(bounds[-1] + len(events))
    ShardState.applied(
        states,
        DigestRuns(
            np.array(times), np.array(digests, dtype=np.uint64), np.array(bounds)
        ),
    )
    for state, (head, events), lo, hi in zip(states, runs, bounds, bounds[1:]):
        run_digests = digests[lo:hi]
        assert state.content_hash == rolling_digest(run_digests, head)
        assert state.n == hi - lo
        last = times[hi - 1]
        assert state.last_time == last
        assert state.tie_digests == {
            d for t, d in zip(times[lo:hi], run_digests) if t == last
        }


def test_event_digest_is_stable_across_processes():
    feedback = Feedback(
        time=12.25, server="srv-a", client="cli-0", rating=Rating.NEGATIVE, category="na"
    )
    script = (
        "from repro.cluster import event_digest\n"
        "from repro.feedback.records import Feedback, Rating\n"
        "print(event_digest(Feedback(time=12.25, server='srv-a', client='cli-0',"
        " rating=Rating.NEGATIVE, category='na')))\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert int(out.stdout) == event_digest(feedback)
    assert 0 <= event_digest(feedback) < 2**64
