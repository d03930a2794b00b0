"""Feedback substrate: records, histories, the ledger, columnar storage."""

from .history import TransactionHistory
from .io import (
    ReadResult,
    RowError,
    parse_rating,
    read,
    write_feedback_binary,
    write_feedback_csv,
    write_feedback_jsonl,
)
from .ledger import FeedbackLedger
from .records import BAD, GOOD, EntityId, Feedback, Rating
from .store import ColumnarStore, FeedbackBatch
from .windows import n_windows, usable_length, window_counts

__all__ = [
    "TransactionHistory",
    "parse_rating",
    "read",
    "ReadResult",
    "RowError",
    "write_feedback_csv",
    "write_feedback_jsonl",
    "write_feedback_binary",
    "FeedbackLedger",
    "ColumnarStore",
    "FeedbackBatch",
    "BAD",
    "GOOD",
    "EntityId",
    "Feedback",
    "Rating",
    "n_windows",
    "usable_length",
    "window_counts",
]
