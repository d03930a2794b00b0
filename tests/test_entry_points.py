"""Every console script resolves, shares one --log-level and one pipe contract."""

from __future__ import annotations

import importlib
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.feedback.io import write_feedback_csv
from repro.feedback.records import Feedback, Rating
from repro.main import assess_main

ROOT = Path(__file__).resolve().parents[1]


def _console_scripts() -> dict:
    """``[project.scripts]`` of pyproject.toml as ``{name: "module:attr"}``.

    Read line by line: the section is flat ``name = "module:attr"``
    pairs, and ``tomllib`` is missing before Python 3.11.
    """
    scripts, in_section = {}, False
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            in_section = line == "[project.scripts]"
        elif in_section and "=" in line and not line.startswith("#"):
            name, _, target = line.partition("=")
            scripts[name.strip()] = target.strip().strip('"')
    return scripts


SCRIPTS = _console_scripts()


def test_console_scripts_are_declared():
    assert set(SCRIPTS) == {"repro", "repro-experiments", "repro-assess"}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_console_script_resolves_to_a_callable(script):
    module_name, _, attr = SCRIPTS[script].partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))


def _feedback_csv(path: Path, servers: int) -> Path:
    write_feedback_csv(
        path,
        [
            Feedback(
                time=float(i), server=f"srv-{i:05d}", client="c", rating=Rating.POSITIVE
            )
            for i in range(servers)
        ],
    )
    return path


def test_assess_log_level_configures_logging(tmp_path):
    logger = logging.getLogger("repro")
    prior_level = logger.level
    prior_handlers = list(logger.handlers)
    try:
        path = _feedback_csv(tmp_path / "log.csv", 3)
        assert assess_main(["--log-level", "INFO", str(path), "--test", "none"]) == 0
        assert logger.level == logging.INFO
    finally:
        logger.setLevel(prior_level)
        for handler in logger.handlers[:]:
            if handler not in prior_handlers:
                logger.removeHandler(handler)


@pytest.mark.parametrize(
    "argv",
    [
        ["assess", "{csv}", "--test", "none"],
        ["obs", "report", "{csv}.events.jsonl"],
    ],
    ids=["assess", "obs-report"],
)
def test_closed_pipe_exits_141(tmp_path, argv):
    """The reader takes one line and leaves; the writer exits 141, quietly.

    Both outputs are far larger than a pipe buffer, so the writer is
    still printing when the pipe closes.
    """
    csv = _feedback_csv(tmp_path / "log.csv", 6000)
    events = Path(f"{csv}.events.jsonl")
    events.write_text(
        "".join(f'{{"event": "event-{i:05d}-{"x" * 24}"}}\n' for i in range(6000))
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    writer = subprocess.Popen(
        [sys.executable, "-m", "repro.main", *(a.format(csv=csv) for a in argv)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert writer.stdout.readline()
    writer.stdout.close()
    stderr = writer.stderr.read()
    assert writer.wait(timeout=120) == 141
    assert b"Traceback" not in stderr
