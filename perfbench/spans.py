"""In-memory spans around the calls one qmemchan module makes into the next.

A ``Tracer`` replaces a module attribute (a binding such as
``qmemchan.cli.product_state_capacity``) with a wrapper that records one
span per call: name, start, end, parent span and operation id, plus a few
computed counts taken from the arguments or the result.  Spans stay in a
list until the run ends; ``restore`` puts the original functions back.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``describe(args, kwargs, result)`` returns the span's computed counts.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


# ----------------------------------------------------------------------------
# the qmemchan layer boundaries
# ----------------------------------------------------------------------------


def forward_rows(n: int) -> int:
    """Forward-algorithm rows one product_state_capacity pass builds up to
    block length n: three passes (stationary, hidden 0, hidden 1) of 2**t
    strings at each t <= n."""
    return 3 * (2 ** (n + 1) - 2)


def dense_bytes(dim: int) -> int:
    """Bytes of one dense complex128 operator on a dim x dim space (16 * 4**n)."""
    return 16 * dim * dim


def _family(args, kwargs, result):
    return {"family": result.family.kind}


def _estimate(args, kwargs, result):
    return {"n_used": result.n_used, "converged": bool(result.converged),
            "rows": forward_rows(result.n_used)}


def _recheck(args, kwargs, result):
    return {"rows": forward_rows(result.block_length)}


def _channel(args, kwargs, result):
    return {"bytes": dense_bytes(result.shape[0])}


def _entries(args, kwargs, result):
    probs = args[0] if args else kwargs["probs"]
    return {"entries": int(np.size(probs))}


# (module, attribute, span name, describe): the bindings where one layer calls the next
BINDINGS = (
    ("qmemchan.cli", "orbit_mutual_information", "ensembles", _family),
    ("qmemchan.cli", "product_state_capacity", "hmm_rate", _estimate),
    ("qmemchan.cli", "entropy_rate_bracket", "hmm_rate.recheck", _recheck),
    ("qmemchan.cli", "two_use_capacity", "two_qubit", None),
    ("qmemchan.cli", "threshold_f", "two_qubit", None),
    ("qmemchan.ensembles", "apply_gamma_n_fast", "channel", _channel),
    ("qmemchan.ensembles", "von_neumann_entropy", "linalg.spectrum", None),
    ("qmemchan.hmm_rate", "shannon_entropy", "linalg.entropy", _entries),
    ("qmemchan.linalg", "shannon_entropy", "linalg.entropy", _entries),
    ("qmemchan.two_qubit", "shannon_entropy", "linalg.entropy", _entries),
)

FAMILIES = ("product", "ghz", "w", "max_entangled")

# per-layer metric name -> unit; every value is per traced round
LAYER_UNITS = {
    "cli.calls": "calls/round",
    "cli.self_s": "s/round",
    "cli.bytes_out": "bytes/round",
    "two_qubit.calls": "calls/round",
    "two_qubit.busy_s": "s/round",
    "ensembles.calls": "calls/round",
    "ensembles.busy_s": "s/round",
    "ensembles.self_s": "s/round",
    **{f"ensembles.{kind}_s": "s/round" for kind in FAMILIES},
    "channel.calls": "calls/round",
    "channel.busy_s": "s/round",
    "channel.bytes": "bytes/round",
    "linalg.spectrum_calls": "calls/round",
    "linalg.spectrum_s": "s/round",
    "linalg.entropy_calls": "calls/round",
    "linalg.entropy_s": "s/round",
    "linalg.entropy_entries": "entries/round",
    "hmm_rate.calls": "calls/round",
    "hmm_rate.busy_s": "s/round",
    "hmm_rate.n_used_max": "n",
    "hmm_rate.converged_ratio": "ratio",
    "hmm_rate.strings": "rows/round",
    "hmm_rate.recheck_calls": "calls/round",
    "hmm_rate.recheck_s": "s/round",
    "hmm_rate.recheck_waste": "ratio",
    "trace.overhead_s": "s/round",
}


def install(tracer: Tracer) -> None:
    for module_name, attr, name, describe in BINDINGS:
        tracer.wrap(importlib.import_module(module_name), attr, name, describe)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, []), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def layer_metrics(spans: list[Span], traced_s: list[float],
                  untraced_s: list[float]) -> dict[str, float]:
    """Per-layer metrics per traced round, keyed as in LAYER_UNITS.

    ``traced_s`` and ``untraced_s`` are the round times of the two passes.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def calls(name):
        return len(by_name.get(name, []))

    def busy(name, keep=lambda span: True):
        return sum(spans[i].duration for i in by_name.get(name, []) if keep(spans[i]))

    def own(name):
        return sum(selfs[i] for i in by_name.get(name, []))

    def total(name, key):
        return sum(spans[i].info.get(key, 0) for i in by_name.get(name, []))

    # a call that raised has no info: it counts as a call, not as an estimate
    estimates = [spans[i].info for i in by_name.get("hmm_rate", []) if spans[i].info]
    strings = total("hmm_rate", "rows")
    sums = {
        "cli.calls": calls("cli"),
        "cli.self_s": own("cli"),
        "cli.bytes_out": total("cli", "bytes_out"),
        "two_qubit.calls": calls("two_qubit"),
        "two_qubit.busy_s": busy("two_qubit"),
        "ensembles.calls": calls("ensembles"),
        "ensembles.busy_s": busy("ensembles"),
        "ensembles.self_s": own("ensembles"),
        **{f"ensembles.{kind}_s": busy("ensembles", lambda s, k=kind: s.info.get("family") == k)
           for kind in FAMILIES},
        "channel.calls": calls("channel"),
        "channel.busy_s": busy("channel"),
        "channel.bytes": total("channel", "bytes"),
        "linalg.spectrum_calls": calls("linalg.spectrum"),
        "linalg.spectrum_s": busy("linalg.spectrum"),
        "linalg.entropy_calls": calls("linalg.entropy"),
        "linalg.entropy_s": busy("linalg.entropy"),
        "linalg.entropy_entries": total("linalg.entropy", "entries"),
        "hmm_rate.calls": calls("hmm_rate"),
        "hmm_rate.busy_s": busy("hmm_rate"),
        "hmm_rate.strings": strings,
        "hmm_rate.recheck_calls": calls("hmm_rate.recheck"),
        "hmm_rate.recheck_s": busy("hmm_rate.recheck"),
    }
    metrics = {name: value / len(traced_s) for name, value in sums.items()}
    metrics["hmm_rate.n_used_max"] = max((e["n_used"] for e in estimates), default=0)
    metrics["hmm_rate.converged_ratio"] = (
        sum(e["converged"] for e in estimates) / len(estimates) if estimates else 0.0)
    metrics["hmm_rate.recheck_waste"] = total("hmm_rate.recheck", "rows") / strings if strings else 0.0
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return {name: metrics[name] for name in LAYER_UNITS}
