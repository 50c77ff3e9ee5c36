"""End-to-end and per-layer benchmark for daegrad.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload lattice-index1 --seed 1 --seconds 34 --trace 0

Each workload runs the documented entry point in-process,
``daegrad.cli.main(["run", ..., "--out", <csv>])``, repeatedly for
``--seconds`` seconds in one process and one thread, and checks every CSV
it writes against the correctness gates.  With ``--trace 0`` the last line
of stdout is a JSON object carrying the end-to-end metrics; with
``--trace 1`` untraced and traced repeats alternate and it carries the
per-layer metrics (see ``spans.py``).  The full record, with the accuracy
fields, the failing step of a failed run and the environment, is printed
as JSON on the line before.  ``RATIONALE.md`` explains the choices.

The library is imported from ``src/`` of the checkout; the script exits
with status 2 and prints no result when it is missing.
"""

from __future__ import annotations

import os

# Pin the BLAS pools before numpy is imported, here and in the set-up
# interpreters started below, which inherit the environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Tracer, layer_totals, library_patches, patched, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

DT = "0.1"
MIN_REPEATS = 3
MIN_SETUP_SAMPLES = 15
SETUP_PER_REPEAT = 2
SUBPROCESS_TIMEOUT_S = 60

# Host-speed reference (see RATIONALE.md).  A fixed loop that lives here,
# not in the library, is timed in blocks between the measured items; each
# block spends CALIBRATION_DUTY of the time of the item before it, and at
# least CALIBRATION_MIN_S.  End-to-end times are scaled by
# REFERENCE_CHUNK_S / (chunk time of the blocks around the item), which
# takes out most of the host's drift and leaves the library's own cost.
REFERENCE_CHUNK_S = 1.5e-3
CALIBRATION_DUTY = 0.2
CALIBRATION_MIN_S = 0.05


@dataclass(frozen=True)
class CliRun:
    """One ``daegrad run`` invocation and the gates its CSV must pass."""

    problem: str
    scheme: str
    steps: int
    grid: int | None = None
    conserves_v: bool = False  # max |V_err| <= 1e-12 max(1, |V0|)
    on_manifold: bool = False  # max constraint_norm <= 1e-10
    dissipates_v: bool = False  # V non-increasing step to step

    @property
    def label(self) -> str:
        return f"{self.problem}/{self.scheme}"

    def argv(self, seed: int, out: Path) -> list[str]:
        grid = ["--grid", str(self.grid)] if self.grid is not None else []
        return ["run", "--problem", self.problem, *grid, "--scheme", self.scheme,
                "--dt", DT, "--steps", str(self.steps), "--seed", str(seed), "--out", str(out)]


# Why each workload exists is in RATIONALE.md.  Only smhs reads the seed (it
# picks the initial state); the other problems start from fixed data.
WORKLOADS: dict[str, tuple[CliRun, ...]] = {
    "lattice-index1": (
        CliRun("sinh-gordon", "dg-index1", steps=10, grid=128, conserves_v=True, on_manifold=True),
    ),
    "lattice-avf": (
        CliRun("sinh-gordon", "dg-avf", steps=200, grid=64, conserves_v=True),
    ),
    "small-systems": (
        CliRun("pendulum", "gonzalez", steps=500, conserves_v=True, on_manifold=True),
        # fails at step 442 (Newton stalls at an absolute 1e-12 tolerance);
        # counted in accepted_frac, not avoided
        CliRun("friction", "dg-midpoint", steps=500, dissipates_v=True),
        CliRun("smhs", "implicit-euler", steps=500, on_manifold=True),
    ),
}


@dataclass
class CsvCheck:
    """What one CSV says about its run, and which gates it broke."""

    digest: str
    size: int
    accepted: int
    failed_at: int | None
    newton_iters: int
    max_v_err: float
    max_constraint_norm: float
    broken: list[str]


def check_csv(run: CliRun, path: Path) -> CsvCheck:
    text = path.read_bytes()
    lines = text.decode("utf-8").splitlines()
    failed_at = None
    if lines and lines[-1].startswith("# failed at step "):
        failed_at = int(lines.pop().rsplit(" ", 1)[1])
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    col = {name: [r[i] for r in rows] for i, name in enumerate(header)}
    v, v_err, cn = col["V"], col["V_err"], col["constraint_norm"]
    max_v_err = max(abs(x) for x in v_err)
    max_cn = max(cn)
    broken = []
    if run.conserves_v and not max_v_err <= 1e-12 * max(1.0, abs(v[0])):
        broken.append(f"max |V_err| {max_v_err:.3e}")
    if run.on_manifold and not max_cn <= 1e-10:
        broken.append(f"constraint norm {max_cn:.3e}")
    if run.dissipates_v and any(b > a for a, b in zip(v, v[1:])):
        broken.append("V increased")
    return CsvCheck(
        digest=hashlib.sha256(text).hexdigest(),
        size=len(text),
        accepted=len(rows) - 1,
        failed_at=failed_at,
        newton_iters=int(sum(col["newton_iters"])),
        max_v_err=max_v_err,
        max_constraint_norm=max_cn,
        broken=broken,
    )


@dataclass
class RunResult:
    run: CliRun
    code: int | None
    main_s: float
    integrate_s: float
    csv: CsvCheck | None
    broken: list[str]
    trace_run: int | None = None

    @property
    def accepted(self) -> int:
        return 0 if self.broken else self.csv.accepted

    @property
    def attempted(self) -> int:
        """A solver failure (exit 2) adds one failed step; a run that exits 1,
        raises or breaks a gate counts all its steps as failed."""
        if self.broken:
            return self.run.steps
        return self.csv.accepted + (self.csv.failed_at is not None)


class Bench:
    """Runs one workload's CLI invocations in-process and checks their CSVs."""

    def __init__(self, workload: str, seed: int):
        import daegrad.cli

        self.cli = daegrad.cli
        self.runs = WORKLOADS[workload]
        self.seed = seed
        self.reference: dict[str, str] = {}

    def run_once(self, run: CliRun, main=None) -> RunResult:
        """One ``main()`` call; ``main`` defaults to the CLI's own."""
        main = main or self.cli.main
        out = WORK / f"{run.problem}-{run.scheme}.csv"
        out.unlink(missing_ok=True)
        marks: list[float] = []
        inner = self.cli.integrate

        def stopwatch(*args, **kwargs):
            marks.append(time.perf_counter())
            try:
                return inner(*args, **kwargs)
            finally:
                marks.append(time.perf_counter())

        code = None
        with patched([(self.cli, "integrate", stopwatch)]):
            started = time.perf_counter()
            try:
                code = main(run.argv(self.seed, out))
            except Exception:  # noqa: BLE001 - a raising run is a failed run
                print(f"error: {run.label} raised", file=sys.stderr)
                traceback.print_exc()
            main_s = time.perf_counter() - started
        integrate_s = marks[1] - marks[0] if len(marks) == 2 else 0.0
        csv = check_csv(run, out) if out.exists() and code in (0, 2) else None
        broken = [] if csv is None else list(csv.broken)
        if csv is not None:
            expected = self.reference.setdefault(run.label, csv.digest)
            if csv.digest != expected:
                broken.append("CSV bytes differ from the first run")
        if code not in (0, 2) or csv is None:
            broken.append(f"exit code {code}, no CSV checked")
        return RunResult(run, code, main_s, integrate_s, csv, broken)

    def repeat(self) -> list[RunResult]:
        return [self.run_once(run) for run in self.runs]


def end_to_end(repeat: list[RunResult]) -> tuple[float, float]:
    """``ms_per_step`` and ``steps_per_s`` of one repeat, summed over its runs."""
    accepted = max(1, sum(r.csv.accepted for r in repeat if r.csv is not None))
    integrate_s = sum(r.integrate_s for r in repeat)
    main_s = sum(r.main_s for r in repeat)
    return 1e3 * integrate_s / accepted, accepted / main_s


_REF_U = np.linspace(-1.0, 1.0, 128)
_REF_V = _REF_U + 1e-3 * np.cos(7.0 * _REF_U)
_REF_M = 3.0 * np.eye(5) + 0.1
_REF_X = np.linspace(-1.0, 1.0, 64)


def _reference_series(h):
    """``sinh(h) - h`` by its series, on a numpy scalar."""
    term = h * h * h / 6.0
    acc, k = term, 1
    while True:
        k += 1
        term *= h * h / ((2 * k) * (2 * k + 1))
        if acc + term == acc:
            return acc
        acc = acc + term


def reference_chunk() -> float:
    """The fixed reference work, in the three kinds the workloads spend
    their time in: arithmetic on numpy scalars taken from an array, small
    numpy array calls, and plain float math."""
    total = 0.0
    for _ in range(2):
        for a, b in zip(_REF_U, _REF_V):
            h = b - a
            s = math.sinh(0.5 * h)
            total += math.cosh(a) * 2.0 * s * s + math.sinh(a) * _reference_series(h)
    for i in range(30):
        y = np.linalg.solve(_REF_M, _REF_X[i:i + 5])
        total += float(np.linalg.norm(y)) + float(np.dot(_REF_X, np.sinh(0.5 * _REF_X)))
    for i in range(1500):
        h = i * 1e-4
        total += math.cosh(h) * math.sinh(0.5 * h)
    return total


def calibrate(seconds: float) -> float:
    """Median time of one reference chunk over a block of at least
    ``seconds`` (and at least three chunks)."""
    times = []
    started = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        reference_chunk()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_factor(before: float, after: float) -> float:
    """Scale for an item timed between two calibration blocks: the reference
    chunk time over the mean chunk time of the blocks."""
    return REFERENCE_CHUNK_S / (0.5 * (before + after))


SETUP_CODE = """
import json, sys, time
import numpy
started = time.perf_counter()
import daegrad
for problem, grid, seed in json.loads(sys.argv[1]):
    daegrad.make_problem(problem, grid=grid, seed=seed)
print(time.perf_counter() - started)
"""


def setup_seconds(runs: tuple[CliRun, ...], seed: int) -> float:
    """``import daegrad`` plus ``make_problem`` for every run, timed in a
    fresh interpreter that has numpy loaded."""
    cases = json.dumps([[r.problem, r.grid, seed] for r in runs])
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, cases],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_record(result: RunResult, seed: int) -> dict:
    csv = result.csv
    return {
        "run": result.run.label,
        "argv": " ".join(result.run.argv(seed, Path("<csv>"))),
        "exit_code": result.code,
        "accepted_steps": result.accepted,
        "failed_at_step": None if csv is None else csv.failed_at,
        "max_abs_V_err": None if csv is None else csv.max_v_err,
        "max_constraint_norm": None if csv is None else csv.max_constraint_norm,
        "csv_sha256": None if csv is None else csv.digest,
        "gates_broken": result.broken,
    }


def environment() -> dict:
    import numpy

    import daegrad

    return {
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "daegrad": daegrad.__version__,
        "machine": platform.machine(),
    }


def median_metrics(samples: list[dict]) -> dict:
    names = samples[0].keys()
    return {
        name: {"value": statistics.median(s[name][0] for s in samples), "unit": samples[0][name][1]}
        for name in names
    }


def traced_repeat(bench: Bench, tracer: Tracer, traced_main) -> list[RunResult]:
    """One repeat with every layer traced; each CLI run gets its own run id.
    The tracer keeps the spans of this repeat only."""
    tracer.spans.clear()
    repeat = []
    for run in bench.runs:
        tracer.run += 1
        with patched(library_patches(tracer)):
            result = bench.run_once(run, traced_main)
        result.trace_run = tracer.run
        repeat.append(result)
    return repeat


def layer_sample(tracer: Tracer, repeat: list[RunResult]) -> dict:
    """Per-layer metrics of one traced repeat, summed over its runs."""
    totals = layer_totals(tracer.spans)
    summed = Counter()
    for r in repeat:
        summed.update(totals.get(r.trace_run, {}))
    checked = [r.csv for r in repeat if r.csv is not None]
    return per_layer_metrics(
        summed,
        steps=max(1, sum(c.accepted for c in checked)),
        csv_bytes=sum(c.size for c in checked),
        newton_iters=sum(c.newton_iters for c in checked),
    )


@dataclass
class Samples:
    """What ``measure`` collects.  ``plain_factors`` and ``setup_factors``
    are the host-speed scales of the untraced repeats and set-up samples
    (empty with a tracer)."""

    plain: list
    traced: list
    setup: list
    layers: list
    plain_factors: list
    setup_factors: list


def measure(bench: Bench, seconds: float, tracer: Tracer | None) -> Samples:
    """Repeat the workload until ``seconds`` pass.

    Untraced, each repeat is followed by set-up samples, so that they are
    spread over the run like the repeats, and every repeat and every pair
    of set-up samples lies between two calibration blocks.  With a tracer,
    each untraced repeat is followed by a traced one instead, whose spans
    are reduced to per-layer metrics at once, and nothing is calibrated.
    """
    out = Samples([], [], [], [], [], [])
    traced_main = None if tracer is None else tracer.wrap("cli.main", bench.cli.main)
    if tracer is None:
        setup_seconds(bench.runs, bench.seed)  # may compile bytecode; discarded
        block = calibrate(CALIBRATION_MIN_S)
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds or len(out.plain) < MIN_REPEATS
           or (tracer is None and len(out.setup) < MIN_SETUP_SAMPLES)):
        t0 = time.perf_counter()
        out.plain.append(bench.repeat())
        if tracer is None:
            after = calibrate(max(CALIBRATION_MIN_S, CALIBRATION_DUTY * (time.perf_counter() - t0)))
            out.plain_factors.append(speed_factor(block, after))
            t0 = time.perf_counter()
            samples = [setup_seconds(bench.runs, bench.seed) for _ in range(SETUP_PER_REPEAT)]
            block = calibrate(max(CALIBRATION_MIN_S, CALIBRATION_DUTY * (time.perf_counter() - t0)))
            out.setup.extend(samples)
            out.setup_factors.extend([speed_factor(after, block)] * len(samples))
        else:
            out.traced.append(traced_repeat(bench, tracer, traced_main))
            out.layers.append(layer_sample(tracer, out.traced[-1]))
    return out


def layer_metrics(layers: list[dict], plain, traced) -> dict:
    """Median over traced repeats of each per-layer metric, plus the
    tracing overhead measured against the untraced repeats."""
    result = median_metrics(layers)
    plain_main = statistics.median(sum(r.main_s for r in rep) for rep in plain)
    traced_main = statistics.median(sum(r.main_s for r in rep) for rep in traced)
    result["trace.overhead_frac"] = {"value": traced_main / plain_main - 1.0, "unit": "fraction"}
    result["trace.ms_per_step"] = {
        "value": statistics.median(end_to_end(rep)[0] for rep in traced), "unit": "ms"}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "daegrad" / "__init__.py").is_file():
        print(f"error: no daegrad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import daegrad

    if Path(daegrad.__file__).resolve().parent != SRC / "daegrad":
        print(f"error: imported daegrad from {daegrad.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    bench = Bench(args.workload, args.seed)
    warmup = bench.repeat()  # fills lazy caches and fixes the reference CSV bytes
    tracer = Tracer() if args.trace else None
    samples = measure(bench, args.seconds, tracer)
    plain, traced = samples.plain, samples.traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    measured = plain + traced
    attempted = sum(r.attempted for rep in measured for r in rep)
    accepted = sum(r.accepted for rep in measured for r in rep)
    failed = attempted - accepted
    correct = all(not r.broken for rep in [warmup] + measured for r in rep)

    per_repeat = [end_to_end(rep) for rep in plain]
    raw = {
        "ms_per_step": statistics.median(m for m, _ in per_repeat),
        "steps_per_s": statistics.median(s for _, s in per_repeat),
    }
    if args.trace:
        metrics = layer_metrics(samples.layers, plain, traced)
        tracer.write_jsonl(WORK / f"spans-{args.workload}.jsonl")  # the last traced repeat
    else:
        factors = samples.plain_factors
        raw["setup_s"] = statistics.median(samples.setup)
        metrics = {
            "ms_per_step": {"value": statistics.median(
                m * f for (m, _), f in zip(per_repeat, factors)), "unit": "ms"},
            "steps_per_s": {"value": statistics.median(
                s / f for (_, s), f in zip(per_repeat, factors)), "unit": "1/s"},
            "setup_s": {"value": statistics.median(
                s * f for s, f in zip(samples.setup, samples.setup_factors)), "unit": "s"},
            "accepted_frac": {"value": accepted / attempted, "unit": "fraction"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used_by": [r.label for r in bench.runs if r.problem == "smhs"],
        "fixed_initial_data": [r.label for r in bench.runs if r.problem != "smhs"],
        "trace": args.trace,
        "repeats": len(plain),
        "traced_repeats": len(traced),
        "setup_samples_s": samples.setup,
        "ms_per_step_samples": [m for m, _ in per_repeat],
        "speed_factors": samples.plain_factors,
        "unscaled": raw,
        "fail_frac": failed / attempted,
        "runs": [run_record(r, args.seed) for r in warmup],
        "environment": environment(),
        "metrics": metrics,
    }
    print(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
