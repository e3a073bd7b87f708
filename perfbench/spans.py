"""Span tracing from outside the program.

`Tracer.installed()` replaces public functions at the module attributes
their callers reach them through with wrappers that record one span per
call (name, start, end, parent span, item id) plus exact work counts, and
puts the originals back on exit. Spans stay in memory until `dump`.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

SOLVE = "mechanism.solve"
SOLVE_FUNCTIONS = ("optimal_mechanism", "optimal_mechanism_hetero", "induced_outcome",
                   "social_welfare", "sufficient_fee_check")


def _oracle_counts(args, result):
    gp = args["grid_points"]
    return {"cells": gp * (gp - 1) // 2 * gp * gp}


def _br_counts(args, result):
    # one grid*grid sweep per user type; a deviation found for H stops early
    types = 1 if result is not None and result.user_type == "H" else 2
    return {"points": types * args["grid"] ** 2}


def _baseline_counts(args, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _jain_counts(args, result):
    return {"elements": len(args["payoffs"])}


def _sweep_counts(args, result):
    return {"points": len(result), "error_rows": sum(1 for r in result if r["error"])}


def _sim_counts(args, result):
    n = args["config"].params.n_users
    blocks = sum(result.blocks_total)
    generated = result.generated_high + result.generated_low
    return {
        "replications": result.replications,
        "events": blocks + generated,
        "blocks": blocks,
        "blocks_nonempty": blocks - sum(result.blocks_empty),
        "generated": generated,
        "censored": int(result.censored_count_total),
        "users": n * result.replications,
        "ledger_bytes_computed": 8 * n * n * result.replications,
    }


def layer_targets(fwt):
    """(module, attribute, span name, count function) for every traced call."""
    targets = [
        (fwt.cli, "sweep_rows", "cli.sweep_rows", _sweep_counts),
        (fwt.cli, "existing_equilibrium", "baseline.existing_equilibrium", _baseline_counts),
        (fwt.cli, "jain_index", "checks.jain_index", _jain_counts),
        (fwt.mechanism, "sne_select", "user_game.sne_select", None),
        (fwt.mechanism, "unconstrained_optimum_oracle", "mechanism.oracle", _oracle_counts),
        (fwt.user_game, "best_response_check", "user_game.best_response_check", _br_counts),
        (fwt.sim, "run", "sim.run", _sim_counts),
    ]
    for module in (fwt.cli, fwt.mechanism):
        targets += [(module, fn, SOLVE, None) for fn in SOLVE_FUNCTIONS]
    return targets


class Tracer:
    def __init__(self, fwt):
        self.fwt = fwt
        self.spans: list[tuple] = []   # (name, start, end, parent, item)
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.item = None
        self._stack: list[int] = []

    def _wrap(self, fn, name, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.item)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[name].update(count(bound.arguments, result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, count in layer_targets(self.fwt):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[int, float]:
        """Span index -> duration minus the time its direct children cover."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return {i: (s[2] - s[1]) - child[i] for i, s in enumerate(self.spans)}

    def layer_summary(self) -> dict[str, dict]:
        """Per span name: top-level call count and summed self time.

        A solve function called from inside another solve function (the
        hetero solve calling the homogeneous one) is part of the outer call.
        """
        own = self.self_times()
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            entry = out[name]
            entry["self_s"] += own[i]
            if not (name == SOLVE and parent >= 0 and self.spans[parent][0] == SOLVE):
                entry["calls"] += 1
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
