"""Tests of the benchmark itself: run with ``python3 -m pytest benchmarks``."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

import run as bench
from spans import (
    DIVERGENCE,
    INTEGRATE,
    NEWTON,
    RESIDUAL,
    Span,
    Tracer,
    layer_totals,
    library_patches,
    newton_breakdown,
    patched,
    self_times,
)

sys.path.insert(0, str(bench.SRC))

import daegrad.integrators  # noqa: E402


def test_self_times_on_synthetic_tree():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("leaf", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def _children(spans, index):
    return [s for s in spans if s.parent == index]


def test_newton_breakdown_matches_the_argument_pattern():
    """Classify residual calls by their arguments, independently of the
    span order, and compare with the breakdown of the traced solve."""
    calls = []

    def residual(w):
        calls.append(np.array(w))
        return np.array([math.atan(w[0] - 1.0) + 0.1 * w[1], w[1] ** 3 - 8.0 + 0.1 * w[0]])

    tracer = Tracer()
    with patched(library_patches(tracer)):
        result = daegrad.integrators.newton_solve(residual, np.array([6.0, 0.5]))

    def is_fd(w, at):  # ``at`` plus the solver's difference step in one coordinate
        h = np.sqrt(np.finfo(float).eps) * (1.0 + float(np.max(np.abs(at))))
        moved = np.flatnonzero(w != at)
        return len(moved) == 1 and w[moved[0]] == at[moved[0]] + h

    base, pending, fd_calls, trials = calls[0], None, 0, 0
    for w in calls[1:]:
        if pending is not None and is_fd(w, pending):  # the last trial was accepted
            base, pending = pending, None
        if pending is None and is_fd(w, base):
            fd_calls += 1
        else:
            trials += 1
            pending = w
    size = 2
    assert fd_calls == size * result.iters
    assert trials > result.iters  # the solve damped at least once

    (index,) = [i for i, s in enumerate(tracer.spans) if s.name == NEWTON]
    out = newton_breakdown(tracer.spans[index], _children(tracer.spans, index))
    assert out["newton_iters"] == out["jacobian_builds"] == result.iters
    assert out["linesearch_trials"] == trials
    assert out["linesearch_accepts"] == result.iters
    evals = sum(s.name == RESIDUAL for s in tracer.spans)
    assert evals == len(calls) == 1 + result.iters * size + out["linesearch_trials"]


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_run_writes_the_untraced_bytes(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    b = bench.Bench(workload, seed=3)
    plain = b.repeat()
    tracer = Tracer()
    traced = bench.traced_repeat(b, tracer, tracer.wrap("cli.main", b.cli.main))
    for p, t in zip(plain, traced):
        assert p.csv is not None and t.csv is not None
        assert t.csv.digest == p.csv.digest
        assert not p.broken and not t.broken

    spans = tracer.spans
    inside = set()
    for i, s in enumerate(spans):
        if s.name == INTEGRATE or s.parent in inside:
            inside.add(i)
    iters = 0
    for i in inside:
        s = spans[i]
        if s.name != NEWTON:
            continue
        kids = _children(spans, i)
        out = newton_breakdown(s, kids)
        size = s.note[0]
        residuals = sum(k.name == RESIDUAL for k in kids)
        assert residuals == 1 + out["newton_iters"] * size + out["linesearch_trials"]
        if s.error is None:
            assert out["newton_iters"] == s.note[1]
            assert out["linesearch_accepts"] == out["newton_iters"]
        iters += out["newton_iters"]
    # every solve in a step is counted in the CSV, plus the initial
    # projection of the index-1 scheme and the iterations of a failed step
    assert iters >= sum(r.csv.newton_iters for r in traced)

    totals = layer_totals(spans)
    failures = sum(t["newton_failures"] for t in totals.values())
    assert failures == sum(r.csv.failed_at is not None for r in traced)
    divergence_calls = sum(t[DIVERGENCE + "_calls"] for t in totals.values())
    assert (divergence_calls > 0) == (workload == "lattice-index1")


def test_friction_failure_is_counted_not_avoided(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    b = bench.Bench("small-systems", seed=0)
    results = {r.run.problem: r for r in b.repeat()}
    friction = results["friction"]
    assert friction.code == 2 and friction.csv.failed_at == 442
    assert friction.attempted == friction.accepted + 1 == 442
    for r in results.values():
        assert not r.broken


def test_speed_factor_scales_by_the_reference_chunk():
    ref = bench.REFERENCE_CHUNK_S
    assert bench.speed_factor(ref, ref) == 1.0
    assert bench.speed_factor(1.5 * ref, 2.5 * ref) == 0.5  # host twice as slow


def test_calibrate_times_at_least_three_chunks(monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "reference_chunk", lambda: calls.append(1))
    assert bench.calibrate(0.0) >= 0.0
    assert len(calls) == 3
