"""Tests for repro.feedback.io (CSV / JSONL / binary serialization)."""

import hashlib

import pytest

from repro.feedback.io import (
    detect_format,
    parse_rating,
    read,
    write_feedback_binary,
    write_feedback_csv,
    write_feedback_jsonl,
)
from repro.feedback.records import Feedback, Rating


def _sample_feedbacks():
    return [
        Feedback(time=1.0, server="s1", client="c1", rating=Rating.POSITIVE),
        Feedback(
            time=2.5,
            server="s1",
            client="c2",
            rating=Rating.NEGATIVE,
            category="NA",
            authentic=False,
        ),
        Feedback(time=3.0, server="s2", client="c1", rating=Rating.POSITIVE),
    ]


class TestParseRating:
    @pytest.mark.parametrize(
        "token", ["1", "positive", "POS", "good", "+", "true", 1]
    )
    def test_positive_spellings(self, token):
        assert parse_rating(token) is Rating.POSITIVE

    @pytest.mark.parametrize("token", ["0", "negative", "NEG", "bad", "-", 0])
    def test_negative_spellings(self, token):
        assert parse_rating(token) is Rating.NEGATIVE

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unrecognized rating"):
            parse_rating("meh")


class TestCsvRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "fb.csv"
        originals = _sample_feedbacks()
        assert write_feedback_csv(path, originals) == 3
        loaded = read(path, format="csv")
        assert loaded == originals

    def test_minimal_header_accepted(self, tmp_path):
        path = tmp_path / "fb.csv"
        path.write_text("time,server,client,rating\n1,s,c,positive\n")
        loaded = read(path, format="csv")
        assert len(loaded) == 1
        assert loaded[0].authentic  # defaults applied
        assert loaded[0].category is None

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "fb.csv"
        path.write_text("time,server,rating\n1,s,1\n")
        with pytest.raises(ValueError, match="client"):
            read(path, format="csv")

    def test_bad_time_reports_line(self, tmp_path):
        path = tmp_path / "fb.csv"
        path.write_text("time,server,client,rating\nnope,s,c,1\n")
        with pytest.raises(ValueError, match="line 2"):
            read(path, format="csv")

    def test_bad_rating_reports_line(self, tmp_path):
        path = tmp_path / "fb.csv"
        path.write_text("time,server,client,rating\n1,s,c,1\n2,s,c,maybe\n")
        with pytest.raises(ValueError, match="line 3"):
            read(path, format="csv")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "fb.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read(path, format="csv")

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "fb.csv"
        path.write_text("time,server,client,rating\n1,,c,1\n")
        with pytest.raises(ValueError, match="server"):
            read(path, format="csv")


class TestJsonlRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "fb.jsonl"
        originals = _sample_feedbacks()
        assert write_feedback_jsonl(path, originals) == 3
        assert read(path, format="jsonl") == originals

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "fb.jsonl"
        path.write_text(
            '{"time": 1, "server": "s", "client": "c", "rating": 1}\n'
            "\n"
            '{"time": 2, "server": "s", "client": "c", "rating": 0}\n'
        )
        assert len(read(path, format="jsonl")) == 2

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "fb.jsonl"
        path.write_text('{"time": 1, "server": "s", "client": "c", "rating": 1}\n{oops\n')
        with pytest.raises(ValueError, match="line 2"):
            read(path, format="jsonl")

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "fb.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="expected an object"):
            read(path, format="jsonl")


class TestBinaryRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "fb.ledger"
        originals = _sample_feedbacks()
        assert write_feedback_binary(path, originals) == 3
        loaded = read(path, format="binary")
        assert loaded == originals
        assert loaded.format == "binary"

    def test_file_bytes_are_pinned(self, tmp_path):
        """The on-disk format is a contract: ids interned in
        first-appearance order, one record block after the header."""
        path = tmp_path / "fb.ledger"
        write_feedback_binary(path, _sample_feedbacks())
        body = path.read_bytes()
        assert len(body) == 32 + 3 * 24
        assert hashlib.sha256(body).hexdigest() == (
            "9d462dcb25dbc0c2fbfc30265560fb53e7c6bd6872dd59ac3df27893be2e5d65"
        )
        for kind, ids in (
            ("servers", b'"s1"\n"s2"\n'),
            ("clients", b'"c1"\n"c2"\n'),
            ("categories", b'"NA"\n'),
        ):
            assert (tmp_path / f"fb.ledger.{kind}").read_bytes() == ids

    def test_strict_raises_on_damaged_tail(self, tmp_path):
        path = tmp_path / "fb.ledger"
        write_feedback_binary(path, _sample_feedbacks())
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 5)  # mid-record
        with pytest.raises(ValueError, match="damaged"):
            read(path, format="binary")

    def test_collect_trims_and_reports_the_tail(self, tmp_path):
        path = tmp_path / "fb.ledger"
        write_feedback_binary(path, _sample_feedbacks())
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 5)
        result = read(path, format="binary", errors="collect")
        assert result == _sample_feedbacks()[:2]
        assert len(result.errors) == 1
        assert "crash tail" in result.errors[0].message

    def test_skip_trims_silently(self, tmp_path):
        path = tmp_path / "fb.ledger"
        write_feedback_binary(path, _sample_feedbacks())
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 5)
        result = read(path, format="binary", errors="skip")
        assert result == _sample_feedbacks()[:2]
        assert result.errors == []


class TestUnifiedRead:
    def test_auto_by_extension(self, tmp_path):
        csv_path = tmp_path / "fb.csv"
        jsonl_path = tmp_path / "fb.jsonl"
        bin_path = tmp_path / "fb.ledger"
        originals = _sample_feedbacks()
        write_feedback_csv(csv_path, originals)
        write_feedback_jsonl(jsonl_path, originals)
        write_feedback_binary(bin_path, originals)
        for path, fmt in ((csv_path, "csv"), (jsonl_path, "jsonl"), (bin_path, "binary")):
            result = read(path)
            assert result == originals
            assert result.format == fmt

    def test_auto_by_content_sniffing(self, tmp_path):
        originals = _sample_feedbacks()
        for fmt, writer in (
            ("csv", write_feedback_csv),
            ("jsonl", write_feedback_jsonl),
            ("binary", write_feedback_binary),
        ):
            path = tmp_path / f"no-extension-{fmt}"
            writer(path, originals)
            assert detect_format(path) == fmt
            assert read(path) == originals

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "fb.csv"
        write_feedback_csv(path, _sample_feedbacks())
        with pytest.raises(ValueError, match="unknown feedback format"):
            read(path, format="parquet")

    def test_available_formats_has_builtins(self, tmp_path):
        # every built-in format reads by explicit name, whatever the suffix
        originals = _sample_feedbacks()
        for fmt, writer in (
            ("csv", write_feedback_csv),
            ("jsonl", write_feedback_jsonl),
            ("binary", write_feedback_binary),
        ):
            path = tmp_path / f"fb-{fmt}.dat"
            writer(path, originals)
            result = read(path, format=fmt)
            assert result == originals
            assert result.format == fmt


class TestErrorModes:
    def _csv_with_bad_rows(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "time,server,client,rating\n"
            "1.0,s1,c1,1\n"
            "oops,s1,c2,1\n"
            "3.0,s1,c3,maybe\n"
            "4.0,s1,c4,0\n"
        )
        return path

    def test_unknown_mode_rejected(self, tmp_path):
        path = self._csv_with_bad_rows(tmp_path)
        with pytest.raises(ValueError, match="errors"):
            read(path, format="csv", errors="ignore")

    def test_strict_is_the_default(self, tmp_path):
        path = self._csv_with_bad_rows(tmp_path)
        with pytest.raises(ValueError, match="line 3"):
            read(path, format="csv")

    def test_collect_returns_good_rows_and_structured_errors(self, tmp_path):
        path = self._csv_with_bad_rows(tmp_path)
        result = read(path, format="csv", errors="collect")
        assert [fb.time for fb in result] == [1.0, 4.0]
        assert [err.line for err in result.errors] == [3, 4]
        assert "not a number" in result.errors[0].message
        assert "rating" in result.errors[1].message
        assert result.errors[0].raw["time"] == "oops"

    def test_skip_drops_bad_rows_without_collecting(self, tmp_path):
        path = self._csv_with_bad_rows(tmp_path)
        result = read(path, format="csv", errors="skip")
        assert [fb.time for fb in result] == [1.0, 4.0]
        assert result.errors == []

    def test_header_problems_always_raise(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("time,server,rating\n1.0,s1,1\n")
        with pytest.raises(ValueError, match="header"):
            read(path, format="csv", errors="collect")

    def test_jsonl_collect_counts_undecodable_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"time": 1.0, "server": "s1", "client": "c1", "rating": 1}\n'
            "{not json}\n"
            '["not", "an", "object"]\n'
            '{"time": 4.0, "server": "s1", "client": "c2", "rating": 0}\n'
        )
        result = read(path, format="jsonl", errors="collect")
        assert [fb.time for fb in result] == [1.0, 4.0]
        assert [err.line for err in result.errors] == [2, 3]
        assert "invalid JSON" in result.errors[0].message
        assert "expected an object" in result.errors[1].message

    def test_jsonl_strict_still_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="line 1"):
            read(path, format="jsonl")

    def test_result_is_a_plain_list_to_existing_callers(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_feedback_csv(path, _sample_feedbacks())
        result = read(path, format="csv")
        assert isinstance(result, list)
        assert list(result) == _sample_feedbacks()
        assert result.errors == []
