"""Feedback substrate: records, histories, the ledger, columnar storage."""

from .history import TransactionHistory
from .io import (
    ReadResult,
    RowError,
    available_formats,
    parse_rating,
    read,
    register_reader,
    write_feedback_binary,
    write_feedback_csv,
    write_feedback_jsonl,
)
from .ledger import (
    FeedbackLedger,
    available_ledger_backends,
    make_ledger_backend,
    register_ledger_backend,
)
from .records import BAD, GOOD, EntityId, Feedback, Rating
from .store import ColumnarStore, FeedbackBatch
from .windows import n_windows, usable_length, window_counts

__all__ = [
    "TransactionHistory",
    "parse_rating",
    "read",
    "ReadResult",
    "RowError",
    "register_reader",
    "available_formats",
    "write_feedback_csv",
    "write_feedback_jsonl",
    "write_feedback_binary",
    "FeedbackLedger",
    "register_ledger_backend",
    "make_ledger_backend",
    "available_ledger_backends",
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
