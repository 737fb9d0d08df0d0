"""Outside-in tracing: spans around the benchmark's own calls into clonelab.

Nothing here reaches inside the package.  A span times one call the
benchmark makes into a public function, in CPU time of the benchmark's only
thread, the clock the job times use.  Rules travel into ``transform``,
``axioms`` and ``games`` as callables, so the benchmark hands those layers a
wrapper that counts and times every rule call; a layer's self time is its
span minus the rule spans nested in it.
"""

from __future__ import annotations

from collections import defaultdict
from time import thread_time


class BudgetExceeded(Exception):
    """Raised by the interval timer when a job runs past its budget."""


class NullTracer:
    """The untraced path: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def rule(self, consumer, name, f):
        return f

    def end_job(self) -> None:
        pass


class Tracer(NullTracer):
    """Spans, rule-call counts and distinct-profile counts, kept in memory."""

    def __init__(self) -> None:
        self.total = defaultdict(float)  # span name -> seconds
        self.self_time = defaultdict(float)  # span name -> seconds outside child spans
        self.calls = defaultdict(int)
        self.timeouts = defaultdict(int)
        self.rule_calls = defaultdict(int)  # consumer layer -> calls it made
        self.distinct = defaultdict(int)  # consumer layer -> distinct profiles it passed
        self._open: list[float] = []  # child seconds of each open span
        self._seen: dict[str, set[int]] = defaultdict(set)

    def call(self, name, fn, *args, **kwargs):
        self._open.append(0.0)
        start = thread_time()
        try:
            return fn(*args, **kwargs)
        except BudgetExceeded:
            self.timeouts[name] += 1
            raise
        finally:
            elapsed = thread_time() - start
            child = self._open.pop()
            self.total[name] += elapsed
            self.self_time[name] += elapsed - child
            self.calls[name] += 1
            if self._open:
                self._open[-1] += elapsed

    def rule(self, consumer, name, f):
        """Wrap rule ``f`` before handing it to layer ``consumer``.

        Each call is counted against ``consumer`` and timed as span ``name``.
        A profile counts as distinct the first time the consumer passes it
        within the current job, so ``distinct / rule_calls`` is the share of
        calls a per-job memo could not have answered.
        """
        seen = self._seen[consumer]

        def traced(profile):
            self.rule_calls[consumer] += 1
            h = hash(profile)
            if h not in seen:
                seen.add(h)
                self.distinct[consumer] += 1
            return self.call(name, f, profile)

        traced.__name__ = getattr(f, "__name__", name)
        return traced

    def end_job(self) -> None:
        for seen in self._seen.values():
            seen.clear()
