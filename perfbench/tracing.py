"""In-memory spans around genforms' layer boundaries, and per-layer metrics.

Spans are recorded by wrapping public names where their callers look them
up (`verifier` imports `power` by name, so `verifier.power` is replaced,
not `macaulay.power`). Nothing inside the program is edited. Each span is
a list [id, name, parent id, start, end, attrs]; a layer's self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from time import perf_counter

ID, NAME, PARENT, START, END, ATTRS = range(6)


class Tracer:
    """Collects spans of one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """fn recorded as span `name`; attrs(args, result) annotates it
        after the clock has stopped."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), name, stack[-1] if stack else None, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, result)
            return result

        return traced


def install(tracer: Tracer):
    """Wrap genforms' layer boundaries; returns a function that undoes it."""
    from genforms import cli, macaulay, verifier

    undo = []

    def patch(owners, attr, name, attrs=None):
        wrapped = tracer.wrap(name, getattr(owners[0], attr), attrs)
        for owner in owners:
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

    patch((verifier, cli), "verify_case", "verifier.case",
          lambda a, r: {"trials": len(r.seeds_tried)})
    patch((verifier, cli), "plan_sweep", "verifier.plan")
    patch((verifier,), "verify_interval", "verifier.interval",
          lambda a, r: {"deduced": len(r.deduced)})
    for attr in ("conjectured_series", "default_truncation", "lex_compare"):
        patch((verifier,), attr, "series")
    patch((verifier,), "power", "macaulay.forms")
    random = macaulay.FormFamily.__dict__["random"]
    undo.append((macaulay.FormFamily, "random", random))
    macaulay.FormFamily.random = classmethod(
        tracer.wrap("macaulay.forms", random.__func__)
    )
    patch((macaulay,), "enumerate_monomials", "monomials")
    patch((macaulay,), "macaulay_rows", "macaulay.rows",
          lambda a, r: {"key": [a[0].n, a[0].degree, a[1]], "shape": list(r.shape)})
    patch((macaulay,), "ideal_dimension_at_degree", "modp",
          lambda a, r: {"n": a[0].n, "e": a[1],
                        "degrees": [f.degree for f in a[0].forms], "rank": r})
    patch((cli,), "cmd_verify", "cli.verify")
    patch((cli,), "load_cache", "cli.cache.load", lambda a, r: {"lines": len(r)})
    patch((cli,), "append_cache", "cli.cache.append")

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _macaulay_rows_total(n, e, degrees):
    return sum(math.comb(n - 1 + e - dg, n - 1) for dg in degrees if dg <= e)


def layer_metrics(spans) -> dict:
    """Per-layer counts and self times of one pass, as {metric: value}."""
    own = self_times(spans)
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(own[s[ID]] for s in by_name[name])

    def attr_sum(name, key):
        return sum(s[ATTRS][key] for s in by_name[name])

    rows_fed = rank = entries = early_exits = 0
    for s in by_name["modp"]:
        a = s[ATTRS]
        fed = sum(c[ATTRS]["shape"][0] for c in children[s[ID]] if c[NAME] == "macaulay.rows")
        rows_fed += fed
        rank += a["rank"]
        entries += sum(
            c[ATTRS]["shape"][0] * c[ATTRS]["shape"][1]
            for c in children[s[ID]] if c[NAME] == "macaulay.rows"
        )
        if fed < _macaulay_rows_total(a["n"], a["e"], a["degrees"]):
            early_exits += 1
    modp_busy = busy("modp")

    seen, cold = set(), 0.0
    for s in by_name["macaulay.rows"]:
        key = tuple(s[ATTRS]["key"])
        if key not in seen:
            seen.add(key)
            cold += own[s[ID]]

    # a cached `genforms verify` runs no verify_case below its span
    computed = set()
    for s in by_name["verifier.case"]:
        p = s[PARENT]
        while p is not None:
            computed.add(p)
            p = spans[p][PARENT]
    verifies = by_name["cli.verify"]
    hits = sum(1 for s in verifies if s[ID] not in computed)

    case_calls = calls("verifier.case")
    trials = attr_sum("verifier.case", "trials")
    return {
        "modp.busy_s": modp_busy,
        "modp.degrees": calls("modp"),
        "modp.rows_fed": rows_fed,
        "modp.rank": rank,
        "modp.useful_ratio": rank / rows_fed if rows_fed else 0.0,
        "modp.early_exits": early_exits,
        "modp.entries": entries,
        "modp.entries_per_s": entries / modp_busy if modp_busy > 0 else 0.0,
        "modp.max_degree_s": max((own[s[ID]] for s in by_name["modp"]), default=0.0),
        "macaulay.forms.calls": calls("macaulay.forms"),
        "macaulay.forms.busy_s": busy("macaulay.forms"),
        "macaulay.rows.calls": calls("macaulay.rows"),
        "macaulay.rows.busy_s": busy("macaulay.rows"),
        "macaulay.rows.cold_s": cold,
        "macaulay.rows.entries": sum(
            s[ATTRS]["shape"][0] * s[ATTRS]["shape"][1] for s in by_name["macaulay.rows"]
        ),
        "monomials.calls": calls("monomials"),
        "monomials.busy_s": busy("monomials"),
        "series.calls": calls("series"),
        "series.busy_s": busy("series"),
        "verifier.case.calls": case_calls,
        "verifier.case.trials": trials,
        "verifier.retry_ratio": (trials - case_calls) / case_calls if case_calls else 0.0,
        "verifier.plan.busy_s": busy("verifier.plan"),
        "verifier.interval.calls": calls("verifier.interval"),
        "verifier.interval.busy_s": busy("verifier.interval"),
        "verifier.interval.deduced_k": attr_sum("verifier.interval", "deduced"),
        "cli.cache.load.calls": calls("cli.cache.load"),
        "cli.cache.load.busy_s": busy("cli.cache.load"),
        "cli.cache.lines": attr_sum("cli.cache.load", "lines"),
        "cli.cache.append.calls": calls("cli.cache.append"),
        "cli.cache.append.busy_s": busy("cli.cache.append"),
        "cli.cache.hit_ratio": hits / len(verifies) if verifies else 0.0,
    }
