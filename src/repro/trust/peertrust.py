"""Simplified PeerTrust (Xiong & Liu, ICECR 2002).

PeerTrust evaluates a server as the credibility-weighted average of the
satisfaction it delivered, where the credibility of a feedback issuer is
derived from how similarly it rates servers compared with the rest of the
community.  We implement the feedback-similarity credibility variant:

    T(s)    = sum_c  cred(c) * sat(c, s)  /  sum_c cred(c)
    sat(c,s) = fraction of c's feedbacks about s that are positive
    cred(c) = 1 / (1 + RMS rating disagreement of c with community means)

This is a *ledger* trust function: it needs every client's behavior, not
just the target server's history.  It serves as a richer phase-2 trust
function in the two-phase framework and as a related-work baseline.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple

import numpy as np

from ..feedback.ledger import FeedbackLedger
from ..feedback.records import EntityId
from .base import LedgerTrustFunction

__all__ = ["PeerTrust"]


class PeerTrust(LedgerTrustFunction):
    """Credibility-weighted satisfaction with similarity-based credibility."""

    name = "peertrust"

    def __init__(self, prior: float = 0.5):
        if not 0.0 <= prior <= 1.0:
            raise ValueError(f"prior must lie in [0, 1], got {prior}")
        self._prior = prior

    def score_server(self, server: EntityId, ledger: FeedbackLedger) -> float:
        sat = _satisfaction_table(ledger)
        if server not in {s for (_, s) in sat}:
            return self._prior
        credibility = self._credibilities(sat)
        num = 0.0
        den = 0.0
        for (client, srv), (rate, count) in sat.items():
            if srv != server:
                continue
            cred = credibility.get(client, 1.0)
            num += cred * rate * count
            den += cred * count
        if den == 0.0:
            return self._prior
        return num / den

    def _credibilities(
        self, sat: Dict[Tuple[EntityId, EntityId], Tuple[float, int]]
    ) -> Dict[EntityId, float]:
        """Per-client credibility from rating similarity to community means."""
        # community mean satisfaction rate per server
        totals: Dict[EntityId, list] = defaultdict(lambda: [0.0, 0])
        for (_, srv), (rate, count) in sat.items():
            cell = totals[srv]
            cell[0] += rate * count
            cell[1] += count
        mean_rate = {srv: v[0] / v[1] for srv, v in totals.items() if v[1] > 0}

        disagreements: Dict[EntityId, list] = defaultdict(list)
        for (client, srv), (rate, _) in sat.items():
            disagreements[client].append((rate - mean_rate[srv]) ** 2)
        return {
            client: 1.0 / (1.0 + float(np.sqrt(np.mean(sq))))
            for client, sq in disagreements.items()
        }


def _satisfaction_table(
    ledger: FeedbackLedger,
) -> Dict[Tuple[EntityId, EntityId], Tuple[float, int]]:
    """``(client, server) -> (positive rate, feedback count)``, read off
    the ledger's feedback graph."""
    return {
        pair: (pos / (pos + neg), pos + neg)
        for pair, (pos, neg) in ledger.feedback_graph().items()
    }
