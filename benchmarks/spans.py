"""Span recording and the per-layer split for the daegrad benchmark.

Spans are recorded from outside the library: the benchmark replaces the
module attributes that ``daegrad`` looks up at call time (for example
``daegrad.integrators.newton_solve``) with wrappers that time the call,
and restores them afterwards.  No file of the library changes.

A span holds a name, start and end times, the index of the span that was
open when it started (its parent) and a run id.  Spans stay in memory
until the benchmark writes them out.  A span's self time is its duration
minus the durations of its direct children; calls are sequential, so the
children never overlap.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

MAIN = "cli.main"
MAKE_PROBLEM = "problems.make_problem"
PSEUDO_INVERSE = "linalg.pseudo_inverse"
INTEGRATE = "integrators.integrate"
NEWTON = "integrators.newton_solve"
RESIDUAL = "integrators.residual"
JACOBIAN = "integrators.jacobian"
LINSOLVE = "integrators.linsolve"
DG = "gradients.discrete_gradient"
VALUE = "gradients.value"
GRADIENT = "gradients.gradient"
DIVERGENCE = "gradients.divergence"
S = "model.S"
F = "model.f"
CONSTRAINT_RESIDUAL = "model.constraint_residual"

# Calls that ``integrate`` makes outside a Newton solve to fill a step record.
OBSERVER_CALLS = frozenset({VALUE, GRADIENT, DIVERGENCE, S, F, CONSTRAINT_RESIDUAL})


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "note", "error")

    def __init__(self, name, start, end, parent, run, note=None, error=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run
        self.note = note
        self.error = error

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``run`` tags every span started while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = [-1]

    def wrap(self, name, fn, note=None):
        """Return ``fn`` recording one span per call.

        ``note(args, result)``, if given, is stored on the span after the
        call; ``result`` is None when the call raised.
        """
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_[-1], self.run)
            open_.append(len(spans))
            spans.append(span)
            result = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                span.end = perf_counter()
                open_.pop()
                if note is not None:
                    span.note = note(args, result)

        return traced

    def write_jsonl(self, path) -> None:
        """One JSON array per span, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["name", "start", "end", "parent", "run", "error"]) + "\n")
            for s in self.spans:
                handle.write(json.dumps([s.name, s.start, s.end, s.parent, s.run, s.error]) + "\n")


@contextmanager
def patched(replacements):
    """Set ``(module, attribute, value)`` triples; restore them on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def traced_spec(tracer: Tracer, spec):
    """Rebuild a ``ProblemSpec`` with its field callables, ``S`` and ``f`` traced.

    A field that plays several roles (``dae.V`` and an observer, say) is
    replaced by one traced object, so a call is classed by its parent span
    rather than by which role made it.
    """
    from daegrad.model import LinearGradientDAE

    memo = {}

    def field(f):
        if id(f) not in memo:
            memo[id(f)] = replace(
                f,
                value=tracer.wrap(VALUE, f.value),
                gradient=tracer.wrap(GRADIENT, f.gradient),
                divergence=None if f.divergence is None else tracer.wrap(DIVERGENCE, f.divergence),
            )
        return memo[id(f)]

    def fields(group):
        return tuple(field(f) for f in group)

    dae = spec.dae
    if isinstance(dae, LinearGradientDAE):
        dae = replace(dae, S=tracer.wrap(S, dae.S), V=field(dae.V), constraints=fields(dae.constraints))
    else:
        dae = replace(dae, f=tracer.wrap(F, dae.f), constraints=fields(dae.constraints))
    gonzalez = spec.gonzalez
    if gonzalez is not None:
        gonzalez = replace(
            gonzalez, hamiltonian=field(gonzalez.hamiltonian), constraints=fields(gonzalez.constraints)
        )
    return replace(
        spec,
        dae=dae,
        primary_invariant=field(spec.primary_invariant),
        extra_invariants=fields(spec.extra_invariants),
        gonzalez=gonzalez,
    )


def library_patches(tracer: Tracer):
    """Replacements that trace each layer of ``daegrad`` for ``patched``."""
    import numpy.linalg

    import daegrad.cli as cli
    import daegrad.integrators as integrators
    import daegrad.model as model

    make_problem = tracer.wrap(MAKE_PROBLEM, cli.make_problem)
    newton = tracer.wrap(
        NEWTON,
        integrators.newton_solve,
        note=lambda args, result: (
            int(numpy.asarray(args[1]).size),
            None if result is None else result.iters,
        ),
    )

    def traced_newton(residual, w0, *args, jacobian=None, **kwargs):
        residual = tracer.wrap(RESIDUAL, residual)
        if jacobian is not None:
            jacobian = tracer.wrap(JACOBIAN, jacobian)
        return newton(residual, w0, *args, jacobian=jacobian, **kwargs)

    def dg_note(args, result):
        if result is None or args[0].variant != "proper":
            return None
        return bool(result[1])

    return [
        (cli, "make_problem", lambda *a, **k: traced_spec(tracer, make_problem(*a, **k))),
        (cli, "integrate", tracer.wrap(INTEGRATE, cli.integrate)),
        (model, "pseudo_inverse", tracer.wrap(PSEUDO_INVERSE, model.pseudo_inverse)),
        (model, "implicit_constraint_residual",
         tracer.wrap(CONSTRAINT_RESIDUAL, model.implicit_constraint_residual)),
        (integrators, "newton_solve", traced_newton),
        (integrators, "discrete_gradient_info",
         tracer.wrap(DG, integrators.discrete_gradient_info, note=dg_note)),
        (integrators, "midpoint_gradient", tracer.wrap(DG, integrators.midpoint_gradient)),
        (numpy.linalg, "solve", tracer.wrap(LINSOLVE, numpy.linalg.solve)),
    ]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def newton_breakdown(span: Span, children: list[Span]) -> Counter:
    """Split one ``newton_solve`` span's residual calls by purpose.

    The solver evaluates the residual once at the start.  Each iteration
    then builds a Jacobian (under forward differences: ``len(w)`` residual
    calls, the ones just before the linear solve; otherwise a ``jacobian``
    span), solves, and tries damped steps (residual calls after the solve)
    until one is accepted.  A line search ends unaccepted only when the
    solver gives up with "damping failed".
    """
    size = span.note[0]
    analytic = any(c.name == JACOBIAN for c in children)
    blocks: list[list[Span]] = [[]]
    out = Counter()
    for c in children:
        if c.name == RESIDUAL:
            blocks[-1].append(c)
        elif c.name == LINSOLVE:
            out["linsolve_s"] += c.duration
            blocks.append([])
            if c.error is None:
                out["searches"] += 1
        elif c.name == JACOBIAN:
            out["jacobian_builds"] += 1
            out["jacobian_s"] += c.duration
    blocks[0] = blocks[0][1:]  # the initial evaluation
    for j, block in enumerate(blocks):
        builds_jacobian = not analytic and j < len(blocks) - 1
        fd = block[len(block) - size:] if builds_jacobian else []
        if builds_jacobian:
            out["jacobian_builds"] += 1
            out["jacobian_s"] += sum(c.duration for c in fd)
        out["linesearch_trials"] += len(block) - len(fd)
    out["linesearch_accepts"] = out["searches"] - int(
        span.error is not None and "damping failed" in span.error
    )
    out["newton_iters"] = len(blocks) - 1
    return out


def layer_totals(spans) -> dict[int, Counter]:
    """Raw per-run totals (seconds and counts) for every layer metric.

    Everything except set-up (``make_problem`` and the pseudoinverse it
    computes) is restricted to spans inside the ``integrate`` call.
    """
    own = self_times(spans)
    inside = [False] * len(spans)
    children = defaultdict(list)
    totals: dict[int, Counter] = defaultdict(Counter)
    ends: dict[int, dict[str, float]] = defaultdict(dict)
    for i, s in enumerate(spans):
        t = totals[s.run]
        parent = spans[s.parent] if s.parent >= 0 else None
        inside[i] = s.name == INTEGRATE or (parent is not None and inside[s.parent])
        if s.name == MAKE_PROBLEM:
            t["make_problem_s"] += s.duration
        elif s.name == PSEUDO_INVERSE:
            t["pseudo_inverse_s"] += s.duration
        elif s.name == MAIN:
            ends[s.run][MAIN] = s.end
        if not inside[i]:
            continue
        if parent is not None and parent.name == NEWTON:
            children[s.parent].append(s)
        if parent is not None and parent.name == INTEGRATE and s.name in OBSERVER_CALLS:
            t["observe_s"] += s.duration
        if s.name == INTEGRATE:
            t["integrate_s"] += s.duration
            t["integrate_self_s"] += own[i]
            ends[s.run][INTEGRATE] = s.end
        elif s.name == NEWTON:
            t["newton_self_s"] += own[i]
            t["newton_failures"] += s.error is not None
        elif s.name == RESIDUAL:
            t["residual_evals"] += 1
            t["residual_self_s"] += own[i]
        elif s.name == DG:
            t["dg_calls"] += 1
            t["dg_self_s"] += own[i]
            if s.note is not None:
                t["proper_calls"] += 1
                t["fallbacks"] += s.note
        elif s.name in (VALUE, GRADIENT, DIVERGENCE, S, F, CONSTRAINT_RESIDUAL):
            t[s.name + "_calls"] += 1
            t[s.name + "_s"] += s.duration
    for idx, kids in children.items():
        totals[spans[idx].run].update(newton_breakdown(spans[idx], kids))
    for run, marks in ends.items():
        if MAIN in marks and INTEGRATE in marks:
            totals[run]["csv_s"] += marks[MAIN] - marks[INTEGRATE]
    return dict(totals)


def per_layer_metrics(t: Counter, steps: int, csv_bytes: int, newton_iters: int) -> dict:
    """Per-layer metrics of one repeat of a workload from its summed totals.

    ``steps`` is the number of accepted steps; ``csv_bytes`` and
    ``newton_iters`` come from the CSV files the repeat wrote.  Set-up
    times and failure counts are per repeat, everything else per step.
    """

    def ms(key):
        return 1e3 * t[key] / steps

    def per_step(key):
        return t[key] / steps

    trials = t["linesearch_trials"]
    proper = t["proper_calls"]
    return {
        "problems.make_problem_ms": (1e3 * t["make_problem_s"], "ms"),
        "linalg.pseudo_inverse_ms": (1e3 * t["pseudo_inverse_s"], "ms"),
        "integrators.newton_iters_per_step": (newton_iters / steps, "count"),
        "integrators.residual_evals_per_step": (per_step("residual_evals"), "count"),
        "integrators.residual_self_ms_per_step": (ms("residual_self_s"), "ms"),
        "integrators.jacobian_builds_per_step": (per_step("jacobian_builds"), "count"),
        "integrators.jacobian_ms_per_step": (ms("jacobian_s"), "ms"),
        "integrators.linsolve_ms_per_step": (ms("linsolve_s"), "ms"),
        "integrators.linesearch_trials_per_step": (per_step("linesearch_trials"), "count"),
        "integrators.linesearch_accept_frac": (
            t["linesearch_accepts"] / trials if trials else 0.0, "fraction"),
        "integrators.newton_self_ms_per_step": (ms("newton_self_s"), "ms"),
        "integrators.observe_ms_per_step": (ms("observe_s"), "ms"),
        "integrators.integrate_self_ms_per_step": (ms("integrate_self_s"), "ms"),
        "integrators.newton_failures": (t["newton_failures"], "count"),
        "gradients.dg_calls_per_step": (per_step("dg_calls"), "count"),
        "gradients.dg_self_ms_per_step": (ms("dg_self_s"), "ms"),
        "gradients.divergence_calls_per_step": (per_step(DIVERGENCE + "_calls"), "count"),
        "gradients.divergence_ms_per_step": (ms(DIVERGENCE + "_s"), "ms"),
        "gradients.gradient_calls_per_step": (per_step(GRADIENT + "_calls"), "count"),
        "gradients.gradient_ms_per_step": (ms(GRADIENT + "_s"), "ms"),
        "gradients.value_calls_per_step": (per_step(VALUE + "_calls"), "count"),
        "gradients.value_ms_per_step": (ms(VALUE + "_s"), "ms"),
        "gradients.fallback_frac": (t["fallbacks"] / proper if proper else 0.0, "fraction"),
        "model.S_calls_per_step": (per_step(S + "_calls"), "count"),
        "model.S_ms_per_step": (ms(S + "_s"), "ms"),
        "model.f_ms_per_step": (ms(F + "_s"), "ms"),
        "model.constraint_residual_ms_per_step": (ms(CONSTRAINT_RESIDUAL + "_s"), "ms"),
        "cli.csv_ms_per_step": (ms("csv_s"), "ms"),
        "cli.csv_bytes_per_step": (csv_bytes / steps, "B"),
    }
