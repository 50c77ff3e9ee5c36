"""Paired benchmark runs of two checkouts, written as one ``BENCH_*.json``.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent <checkout> --change <checkout> \\
        --workload lattice-index1 --first-seed 901 --pairs 10 --seconds 34 \\
        --trace-seed 951 --out BENCH_9.json

For each pair ``k`` and each ``--workload``, ``benchmarks/run.py --trace 0``
runs once in each checkout with seed ``first_seed + k``; the parent runs
first on even ``k`` and the change on odd ``k``, so that a drift of the
host's speed falls on both sides alike.  With ``--trace-seed``, one
``--trace 1`` run per side and workload follows the pairs.  Every run uses
the benchmark code of its own checkout.  The two checkouts' resolved
paths must have the same length, or the script exits with status 2 before
any run: ``lattice-index1`` read about 4 % apart between identical
checkouts whose paths differed in length.  ``method`` records both paths.
Every run gets a ``PYTHONPYCACHEPREFIX`` of its own, a fresh temporary
directory removed after it, so both sides compile their code alike:
bytecode left in a checkout's ``__pycache__`` is never read, and stale
bytecode cannot make one side's imports slower than the other's.

The output holds ``what``, ``method`` and ``host``; a ``summary`` per
workload with, for every end-to-end metric of ``BENCHMARK.json``, each
side's median and quartiles, the ratio of the medians (change over
parent), the number of pairs the change won (ties count for neither), the
metric's ``bound`` and ``worse_frac``, how far the change's median lies on
the worse side of the parent's as a fraction of it (0 when not worse),
``meets_gain_rule``, whether the metric shows a gain that may be claimed
(at least ``GAIN_MIN_PAIRS`` complete pairs, the change better in at least
nine tenths of all pairs run, and its median better than the parent's by
more than the distance between the parent's quartiles), and per workload
``no_regression``, whether every ``worse_frac`` is within its bound,
``csv_identical``, whether both sides wrote the same CSV bytes in every
pair, and each side's largest ``|V_err|`` and constraint norm; in
``runs_summary``, per workload and per run of it (``pendulum/gonzalez``
and the like), the same ``csv_identical`` and accuracy figures for that
run alone, kept apart from ``summary`` so that a dissipation figure such
as ``friction/dg-midpoint``'s ``|V_err|`` does not hide another run's
accuracy, and so that every dict value in ``summary[<workload>]`` stays a
metric; the traced records per workload and, in ``traced_counts``, every
per-layer metric of unit ``count`` from them as parent, change and ratio;
and ``records``, the last stdout line of every run, to which ``runs``
adds each run's CSV digest, failing step and accuracy from the full
record before it, ``unscaled`` that record's medians before the host-speed
scaling, and ``speed_factor_median`` the median of its ``speed_factors``,
so that a shift of the host's speed can be told from the library's own
time (None each without a full record, or for a traced run, which has no
speed factors); and in ``host_summary``, per workload, each side's median
of those two figures over its untraced runs and their ratios, so that the
file shows whether a gain holds before the scaling.  A run that outlasts
``RUN_TIMEOUT_FLOOR_S + RUN_TIMEOUT_FACTOR * --seconds`` is stopped and
recorded as ``"correct": false`` with the error ``"timed out"``.  The
script exits with status 1 if a run failed or reported ``"correct":
false``, after writing the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# A run lasts about --seconds plus set-up samples, calibration and a warm-up
# repeat; these bound it generously, so that only a hung run reaches them.
RUN_TIMEOUT_FLOOR_S = 300.0
RUN_TIMEOUT_FACTOR = 10.0
# a gain is claimed on no fewer pairs than this
GAIN_MIN_PAIRS = 10


def label(checkout: Path) -> str:
    """The checkout's short commit hash (``-dirty`` if it has uncommitted
    edits), or its directory name outside git."""
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else checkout.name


# what each run of the full record keeps: enough to compare CSV bytes and
# accuracy across sides
RUN_FIELDS = ("run", "csv_sha256", "failed_at_step", "max_abs_V_err", "max_constraint_norm")


def full_record(lines: list[str]) -> dict:
    """The full record, which ``benchmarks/run.py`` prints as indented JSON
    from a line ``{`` up to the line before the last; empty when there is
    no such record."""
    starts = [i for i, line in enumerate(lines[:-1]) if line == "{"]
    if not starts:
        return {}
    try:
        record = json.loads("\n".join(lines[starts[-1]:-1]))
    except json.JSONDecodeError:
        return {}
    return record if isinstance(record, dict) else {}


def run_summaries(lines: list[str]) -> list[dict] | None:
    """``RUN_FIELDS`` of each run in the full record; None without one."""
    runs = full_record(lines).get("runs")
    if not isinstance(runs, list):
        return None
    return [{key: run.get(key) for key in RUN_FIELDS} for run in runs]


def host_figures(lines: list[str]) -> dict:
    """``unscaled`` of the full record and ``speed_factor_median``, the
    median of its ``speed_factors``; None for either that it lacks."""
    full = full_record(lines)
    factors = full.get("speed_factors")
    unscaled = full.get("unscaled")
    return {"unscaled": unscaled if isinstance(unscaled, dict) else None,
            "speed_factor_median": statistics.median(factors)
            if isinstance(factors, list) and factors else None}


def bench_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``benchmarks/run.py`` run, with a fresh ``PYTHONPYCACHEPREFIX``:
    its last stdout line, with ``runs`` from :func:`run_summaries` and the
    fields of :func:`host_figures` added, or an error record."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        try:
            proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONPYCACHEPREFIX=cache),
                                  timeout=RUN_TIMEOUT_FLOOR_S + RUN_TIMEOUT_FACTOR * seconds)
        except subprocess.TimeoutExpired:
            return {"correct": False, "error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = None
    if proc.returncode != 0 or not isinstance(record, dict):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"correct": False, "error": f"exit {proc.returncode}: {' | '.join(tail)}"}
    record["runs"] = run_summaries(lines)
    record.update(host_figures(lines))
    return record


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def worse_frac(parent: float, change: float, better: str) -> float | None:
    """How far ``change`` lies on the worse side of ``parent``, as a fraction
    of ``|parent|``: 0 when it is not worse, None when ``parent`` is 0 and
    ``change`` is worse."""
    worse = change - parent if better == "lower" else parent - change
    if worse <= 0:
        return 0.0
    return worse / abs(parent) if parent else None


def _largest(records: list[dict], key: str, label: str | None = None) -> float | None:
    """The largest ``key`` over every run of ``records``, or over the runs
    named ``label`` only; None without one."""
    values = [run[key] for r in records for run in r["record"].get("runs") or ()
              if run.get(key) is not None and label in (None, run.get("run"))]
    return max(values) if values else None


def _complete_pairs(records: list[dict]) -> tuple[dict, list[dict]]:
    """``records`` by pair and side, and the pairs in which both sides have
    metrics."""
    by_pair = {}
    for r in records:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["record"]
    complete = [p for p in by_pair.values() if all("metrics" in p.get(s, {}) for s in SIDES)]
    return by_pair, complete


def summarize_runs(records: list[dict]) -> dict:
    """Per run of one workload's untraced records, by its label:
    ``csv_identical``, whether the change wrote the parent's CSV digest for
    that run in every complete pair (None when no pair is complete or a
    complete pair lacks the run on a side), and each side's largest
    ``max_abs_V_err`` and ``max_constraint_norm`` over its runs of that
    label."""
    _, complete = _complete_pairs(records)
    labels = dict.fromkeys(run.get("run") for r in records
                           for run in r["record"].get("runs") or ())
    by_label = [[{run.get("run"): run.get("csv_sha256") for run in p[side].get("runs") or ()}
                 for side in SIDES] for p in complete]
    out = {}
    for label in labels:
        digests = [[side.get(label) for side in pair] for pair in by_label]
        known = complete and all(None not in d for d in digests)
        entry = {"csv_identical": all(d[0] == d[1] for d in digests) if known else None}
        for side in SIDES:
            mine = [r for r in records if r["side"] == side]
            for key in ("max_abs_V_err", "max_constraint_norm"):
                entry[f"{side}_{key}"] = _largest(mine, key, label)
        out[label] = entry
    return out


def summarize(records: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric medians, quartiles, ratio, pairs won, bound, ``worse_frac``
    and ``meets_gain_rule``, over the untraced records of one workload;
    ``end_to_end`` is the list of the same name in ``BENCHMARK.json``.
    ``no_regression`` says whether every metric has a ``worse_frac`` within
    its ``bound`` (false when no pair is complete).  ``csv_identical`` says
    whether the change's runs wrote the parent's CSV digests in every
    complete pair (None when no pair is complete or a record has no
    ``runs``), and ``<side>_max_abs_V_err`` and
    ``<side>_max_constraint_norm`` are each side's largest over its runs."""
    by_pair, complete = _complete_pairs(records)
    out = {}
    for metric in end_to_end if complete else ():
        name, better = metric["name"], metric["better"]
        values = {s: [p[s]["metrics"][name]["value"] for p in complete] for s in SIDES}
        sign = -1.0 if better == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        parent_median = statistics.median(values["parent"])
        change_median = statistics.median(values["change"])
        low, high = quartiles(values["parent"])
        out[name] = {
            "parent_median": parent_median,
            "parent_quartiles": [low, high],
            "change_median": change_median,
            "change_quartiles": quartiles(values["change"]),
            "ratio": change_median / parent_median if parent_median else None,
            "change_better_pairs": wins,
            "pairs": len(complete),
            "bound": metric["bound"],
            "worse_frac": worse_frac(parent_median, change_median, better),
            "meets_gain_rule": len(complete) >= GAIN_MIN_PAIRS
            and 10 * wins >= 9 * len(by_pair)
            and sign * (change_median - parent_median) > high - low,
        }
    out["no_regression"] = bool(complete) and all(
        m["worse_frac"] is not None and m["worse_frac"] <= m["bound"] for m in out.values()
    )
    out["all_correct"] = all(r["record"].get("correct") is True for r in records)
    digests = [[None if p[side].get("runs") is None
                else [(run["run"], run["csv_sha256"]) for run in p[side]["runs"]]
                for side in SIDES] for p in complete]
    known = complete and all(None not in d for d in digests)
    out["csv_identical"] = all(d[0] == d[1] for d in digests) if known else None
    for side in SIDES:
        mine = [r for r in records if r["side"] == side]
        for key in ("max_abs_V_err", "max_constraint_norm"):
            out[f"{side}_{key}"] = _largest(mine, key)
    return out


def summarize_host(records: list[dict]) -> dict:
    """Each side's median, over one workload's untraced records, of
    ``unscaled.ms_per_step`` and of ``speed_factor_median``, and for each
    the ratio of the medians (change over parent); None for a median
    without values and for a ratio without both medians.  Kept apart from
    ``summary``, so that it shows whether a change in the scaled time is
    the library's own or a shift of the host's speed."""
    figures = {"unscaled_ms_per_step": lambda r: (r.get("unscaled") or {}).get("ms_per_step"),
               "speed_factor_median": lambda r: r.get("speed_factor_median")}
    out = {}
    for key, read in figures.items():
        for side in SIDES:
            values = [v for r in records if r["side"] == side
                      if (v := read(r["record"])) is not None]
            out[f"{side}_{key}"] = statistics.median(values) if values else None
        parent, change = out[f"parent_{key}"], out[f"change_{key}"]
        out[f"{key}_ratio"] = change / parent if parent and change is not None else None
    return out


TRACED_NOTE = ("per-layer counts of the one --trace 1 run per side; traced times are not "
               "scaled for the host's speed and come from one run per side, so only "
               "these counts compare across sides")


def traced_counts(traced: dict, names: list[str]) -> dict:
    """Parent, change and ratio (change over parent) of each count metric in
    ``names`` for one workload's traced records; a missing value is None."""
    out = {}
    for name in names:
        parent, change = (traced.get(s, {}).get("metrics", {}).get(name, {}).get("value")
                          for s in SIDES)
        ratio = change / parent if parent and change is not None else None
        out[name] = {"parent": parent, "change": change, "ratio": ratio}
    return {"note": TRACED_NOTE, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of benchmarks/run.py; may repeat")
    parser.add_argument("--first-seed", type=int, required=True,
                        help="pair k runs with seed first_seed + k")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-seed", type=int, help="add one traced run per side and workload")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "benchmarks" / "run.py").is_file():
            parser.error(f"--{side} {path} has no benchmarks/run.py")
    lengths = {side: len(str(path)) for side, path in checkouts.items()}
    if lengths["parent"] != lengths["change"]:
        parser.error("the checkouts' paths must have equal length: " + ", ".join(
            f"--{side} {checkouts[side]} ({lengths[side]} characters)" for side in SIDES))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    records = []

    def run(side, workload, seed, pair, trace):
        record = bench_once(checkouts[side], workload, seed, args.seconds, trace)
        records.append({"side": side, "workload": workload, "seed": seed, "pair": pair,
                        "trace": trace, "record": record})
        print(f"{side:6} {workload:15} seed {seed} pair {pair} trace {trace}: "
              f"correct={record.get('correct')}", file=sys.stderr, flush=True)

    for pair in range(args.pairs):
        seed = args.first_seed + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            for side in order:
                run(side, workload, seed, pair, 0)
    if args.trace_seed is not None:
        for workload in args.workload:
            for side in SIDES:
                run(side, workload, args.trace_seed, 0, 1)

    names = {side: label(path) for side, path in checkouts.items()}
    traced = " and one --trace 1 run per side and workload, seed %d" % args.trace_seed \
        if args.trace_seed is not None else ""
    traced_records = {
        w: {r["side"]: r["record"] for r in records if r["workload"] == w and r["trace"] == 1}
        for w in args.workload if args.trace_seed is not None
    }
    result = {
        "what": f"benchmarks/run.py last-line records, parent {names['parent']} "
                f"against change {names['change']}",
        "method": f"python3 benchmarks/run.py --workload <w> --seed <s> --seconds {args.seconds:g} "
                  f"--trace 0, run from a checkout of each side; {args.pairs} pairs, seeds "
                  f"{args.first_seed}..{args.first_seed + args.pairs - 1}; pairs alternate which "
                  f"side runs first (parent first on even pair indices){traced}; parent "
                  f"checkout {checkouts['parent']}, change checkout {checkouts['change']}; "
                  f"written by tools/bench_pairs.py",
        "host": f"{os.cpu_count()}-core {platform.system()} {platform.machine()}, "
                f"Python {platform.python_version()}, one BLAS thread",
        "summary": {
            w: summarize([r for r in records if r["workload"] == w and r["trace"] == 0],
                         spec["end_to_end"])
            for w in args.workload
        },
        "runs_summary": {
            w: summarize_runs([r for r in records if r["workload"] == w and r["trace"] == 0])
            for w in args.workload
        },
        "host_summary": {
            w: summarize_host([r for r in records if r["workload"] == w and r["trace"] == 0])
            for w in args.workload
        },
        "traced": traced_records,
        "traced_counts": {w: traced_counts(t, counts) for w, t in traced_records.items()},
        "records": records,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0 if all(r["record"].get("correct") is True for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
