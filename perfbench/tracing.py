"""Span recording around the public callables of each layer.

The benchmark never edits the program: a :class:`Tracer` patches a
public function or method *where its caller looks it up* (a module
global such as ``repro.serve.service.fold_cold_batch``, or a class
attribute such as ``FeedbackLedger.record``) with a wrapper that
records one span per call.  A span is ``(name, start, end, parent)``;
spans live in flat arrays in memory and are written out once, when the
run ends.  Self time — a span's duration minus the part of it its child
spans cover — is accumulated on the fly from the open-span stack.

Hot leaf functions whose only metric is a call count (``binomial_pmf``)
get a counting wrapper instead, which records no span.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

PostHook = Callable[["Tracer", tuple, dict, Any], None]

_clock = time.perf_counter
_MISSING = object()


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        # open spans: [span index, time covered by child spans]
        self._stack: List[list] = []
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Counter = Counter()
        #: objects post hooks kept (e.g. every service built)
        self.seen: Dict[str, list] = defaultdict(list)
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # patching

    def wrap(
        self,
        owner: object,
        attr: str,
        span: str,
        post: Optional[PostHook] = None,
        when: Optional[Callable[[tuple, dict], bool]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        self.patch(owner, attr, self.wrapped(getattr(owner, attr), span, post, when))

    def wrapped(
        self,
        original: Callable,
        span: str,
        post: Optional[PostHook] = None,
        when: Optional[Callable[[tuple, dict], bool]] = None,
    ) -> Callable:
        """``original`` wrapped to record one ``span`` per call.

        ``post(tracer, args, kwargs, result)`` runs after the call, outside
        the span, to add counts.  ``when(args, kwargs)`` restricts the
        span to matching calls (others run unrecorded).
        """
        name_id = self._name_id(span)
        tracer = self

        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return original(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer._span_start)
            tracer._span_name.append(name_id)
            tracer._span_parent.append(stack[-1][0] if stack else -1)
            tracer._span_start.append(0.0)
            tracer._span_end.append(0.0)
            frame = [index, 0.0]  # span index, time covered by children
            stack.append(frame)
            start = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                tracer._span_start[index] = start
                tracer._span_end[index] = end
                tracer.calls[span] += 1
                tracer.self_s[span] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def observe(self, owner: object, attr: str, post: PostHook) -> None:
        """Replace ``owner.attr`` by a wrapper that only runs ``post``."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            post(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self.patch(owner, attr, wrapper)

    def count(self, owner: object, attr: str, counter: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls."""
        original = getattr(owner, attr)
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self.patch(owner, attr, wrapper)

    def patch(self, owner: object, attr: str, wrapper: object) -> None:
        # the owner's own dict entry is what gets restored: an inherited
        # method is shadowed by the wrapper and unshadowed afterwards
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    # ------------------------------------------------------------------ #
    # output

    @property
    def n_spans(self) -> int:
        return len(self._span_start)

    def write(self, path: Path) -> None:
        """Write every span as numpy columns (``.npz``) plus a name table.

        ``name`` indexes ``names``, ``parent`` is the index of the
        enclosing span (-1 at the top), times are seconds since the first
        span started.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        start = np.frombuffer(self._span_start, dtype=np.float64)
        origin = start[0] if start.size else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            parent=np.frombuffer(self._span_parent, dtype=np.int32),
            start_s=start - origin,
            end_s=np.frombuffer(self._span_end, dtype=np.float64) - origin,
        )
