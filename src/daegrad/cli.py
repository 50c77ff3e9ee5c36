"""Command-line experiment driver.

Two subcommands:

* ``run`` integrates a built-in problem with one of the schemes and writes
  a CSV time series (stdout unless ``--out`` is given).  Mid-run solver
  failures keep the partial CSV, append ``# failed at step N``, and exit
  with status 2; bad names or unwritable paths exit with status 1.
* ``check`` prints a structure report for a problem: mass-matrix rank and
  pseudoinverse quality, properness of each named invariant at sampled
  on-manifold states, and the conservative/dissipative verdict.

Configuration may come from flat ``key = value`` files (``--config``,
repeatable; ``#`` starts a comment).  Explicit flags override file values.
Several config files form a batch that runs one after another, each
writing its own output file.

The CSV layout is fixed: ``step,t,V,V_err,constraint_norm,c_norm,
newton_iters,newton_residual`` followed by one column per extra invariant
(plus ``<name>_err`` for drift-tracked ones).  Floats carry 17 significant
digits so that re-runs are byte-identical; lines end with LF.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import StepFailure
from .integrators import SCHEMES, NewtonConfig, Trajectory, integrate
from .linalg import penrose_residuals
from .model import LinearGradientDAE, check_proper, verify_structure
from .problems import PROBLEM_NAMES, ProblemSpec, make_problem

__all__ = ["main", "RunConfig"]


class CliError(Exception):
    """Invalid invocation; the message goes to stderr and the exit code is 1."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters for one ``run`` invocation."""

    problem: str
    scheme: str | None
    dt: float
    steps: int
    grid: int | None
    newton_tol: float
    newton_max_iters: int
    out: str | None
    snapshot_every: int | None
    seed: int


_RUN_DEFAULTS = {
    "problem": None,
    "scheme": None,
    "dt": 0.1,
    "steps": 100,
    "grid": None,
    "newton_tol": 1e-12,
    "newton_max_iters": 50,
    "out": None,
    "snapshot_every": None,
    "seed": 0,
}
_INT_KEYS = frozenset({"steps", "grid", "newton_max_iters", "snapshot_every", "seed"})
_FLOAT_KEYS = frozenset({"dt", "newton_tol"})


def _coerce(key: str, text: str, where: str) -> object:
    try:
        if key in _INT_KEYS:
            return int(text)
        if key in _FLOAT_KEYS:
            return float(text)
    except ValueError:
        raise CliError(f"{where}: bad value {text!r} for {key!r}") from None
    return text


def _parse_config_file(path: str) -> dict[str, object]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip().replace("-", "_")
        if key not in _RUN_DEFAULTS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, value.strip(), f"{path}:{lineno}")
    return values


def _merge_run_config(args: argparse.Namespace, file_values: dict[str, object]) -> RunConfig:
    merged = dict(_RUN_DEFAULTS)
    merged.update(file_values)
    for key in _RUN_DEFAULTS:
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
    if merged["problem"] is None:
        raise CliError("no problem selected (pass --problem or set it in a config file)")
    config = RunConfig(**merged)
    if not config.dt > 0:
        raise CliError(f"dt must be positive, got {config.dt}")
    if config.steps < 1:
        raise CliError(f"steps must be at least 1, got {config.steps}")
    if not config.newton_tol > 0:
        raise CliError(f"newton-tol must be positive, got {config.newton_tol}")
    if config.newton_max_iters < 1:
        raise CliError(f"newton-max-iters must be at least 1, got {config.newton_max_iters}")
    if config.snapshot_every is not None:
        if config.snapshot_every < 1:
            raise CliError(f"snapshot-every must be at least 1, got {config.snapshot_every}")
        if config.out is None:
            raise CliError("--snapshot-every needs --out (snapshots go to <out>.states.csv)")
    return config


def _format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _csv_rows(spec: ProblemSpec, traj: Trajectory) -> list[str]:
    extras = [(f.name, f.name in spec.err_tracked) for f in spec.extra_invariants]
    header = ["step", "t", "V", "V_err", "constraint_norm", "c_norm", "newton_iters", "newton_residual"]
    for name, tracked in extras:
        header.append(name)
        if tracked:
            header.append(f"{name}_err")
    rows = [",".join(header)]
    primary = spec.primary_invariant.name
    first = traj.records[0].invariant_values
    for rec in traj.records:
        value = rec.invariant_values[primary]
        cells = [
            str(rec.step_index),
            _format_float(rec.time),
            _format_float(value),
            _format_float(value - first[primary]),
            _format_float(rec.constraint_residual_norm),
            _format_float(rec.redundant_c_norm),
            str(rec.newton_iters),
            _format_float(rec.newton_residual),
        ]
        for name, tracked in extras:
            extra_value = rec.invariant_values[name]
            cells.append(_format_float(extra_value))
            if tracked:
                cells.append(_format_float(extra_value - first[name]))
        rows.append(",".join(cells))
    return rows


def _snapshot_rows(traj: Trajectory, every: int) -> list[str]:
    dim = traj.records[0].state.size
    rows = [",".join(["step", "t"] + [f"z{i}" for i in range(dim)])]
    for rec in traj.records:
        if rec.step_index % every == 0:
            cells = [str(rec.step_index), _format_float(rec.time)]
            cells.extend(_format_float(x) for x in rec.state)
            rows.append(",".join(cells))
    return rows


def _write_text(path: str, rows: list[str]) -> None:
    payload = "\n".join(rows) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _execute_run(config: RunConfig) -> int:
    started = time.perf_counter()
    try:
        spec = make_problem(config.problem, grid=config.grid, seed=config.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    scheme = config.scheme or spec.recommended_scheme
    target = spec.gonzalez if scheme == "gonzalez" else spec.dae
    newton_cfg = NewtonConfig(residual_tol=config.newton_tol, max_iters=config.newton_max_iters)

    failure: StepFailure | None = None
    try:
        traj = integrate(
            target,
            scheme,
            spec.default_initial_state,
            config.dt,
            config.steps,
            observers=spec.observers,
            cfg=newton_cfg,
        )
    except StepFailure as exc:
        failure = exc
        traj = exc.trajectory
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rows = _csv_rows(spec, traj)
    if failure is not None:
        rows.append(f"# failed at step {failure.step_index}")
    if config.out is None:
        sys.stdout.write("\n".join(rows) + "\n")
    else:
        _write_text(config.out, rows)
    if config.snapshot_every is not None:
        _write_text(f"{config.out}.states.csv", _snapshot_rows(traj, config.snapshot_every))

    elapsed = time.perf_counter() - started
    print(
        f"# elapsed: {elapsed:.3f} s ({config.problem}/{scheme}, {len(traj) - 1} steps recorded)",
        file=sys.stderr,
    )
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 2
    return 0


def _run_command(args: argparse.Namespace) -> int:
    if args.config:
        configs = [_merge_run_config(args, _parse_config_file(path)) for path in args.config]
    else:
        configs = [_merge_run_config(args, {})]
    if len(configs) > 1:
        outs = [c.out for c in configs]
        if None in outs:
            raise CliError("every config in a batch needs its own 'out' path")
        if len(set(outs)) != len(outs):
            raise CliError("batch configs must write to distinct 'out' paths")
    return max(_execute_run(config) for config in configs)


def _check_command(problem: str, grid: int | None, seed: int) -> int:
    try:
        spec = make_problem(problem, grid=grid, seed=seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    dae = spec.dae
    sub = dae.subspaces
    residuals = penrose_residuals(dae.A, sub.pinv)
    print(f"problem: {spec.name}")
    print(f"state dimension: {dae.dim}")
    print(f"mass matrix rank: {sub.rank}, nullity: {sub.nullity}")
    print(f"max Penrose residual: {max(residuals):.3e}")
    print(f"index note: {spec.index_note}")
    if spec.notes:
        print(f"notes: {spec.notes}")

    if spec.sample_on_manifold is None:
        samples = [spec.default_initial_state]
    else:
        samples = list(spec.sample_on_manifold(np.random.default_rng(seed), 20))
    print(f"invariants at {len(samples)} on-manifold samples:")
    for field in spec.observers:
        checks = [check_proper(dae, z, field=field) for z in samples]
        worst = max(c.residual for c in checks)
        verdict = "proper" if all(c.passed for c in checks) else "NOT proper"
        print(f"  {field.name}: {verdict} (max residual {worst:.3e})")

    if isinstance(dae, LinearGradientDAE) and dae.structure_claim != "none":
        label = dae.structure_claim
        if "constant S" in spec.notes:
            label += ", constant S"
        print(f"structure: {label}")
        report = verify_structure(dae, samples)
        status = "pass" if report.passed else "FAIL"
        if dae.structure_claim == "conservative":
            print(f"A^+S skew: residual {report.worst_residual:.3e} ({status})")
        else:
            print(
                f"A^+S negative semidefinite: max eigenvalue {report.worst_residual:.3e} ({status})"
            )
    else:
        print("structure: none declared (general right-hand side)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daegrad",
        description="Structure-preserving integrators for DAEs with conservation laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate a problem and write a CSV time series")
    run_p.add_argument("--problem", help=f"one of: {', '.join(PROBLEM_NAMES)}")
    run_p.add_argument(
        "--scheme",
        help=f"one of: {', '.join(SCHEMES)} (default: the problem's recommendation)",
    )
    run_p.add_argument("--dt", type=float, help="time step (default 0.1)")
    run_p.add_argument("--steps", type=int, help="number of steps (default 100)")
    run_p.add_argument("--grid", type=int, help="grid size for spatial problems")
    run_p.add_argument("--newton-tol", type=float, dest="newton_tol", help="Newton residual tolerance (default 1e-12)")
    run_p.add_argument("--newton-max-iters", type=int, dest="newton_max_iters", help="Newton iteration cap (default 50)")
    run_p.add_argument("--out", help="CSV output path (default: stdout)")
    run_p.add_argument(
        "--snapshot-every",
        type=int,
        dest="snapshot_every",
        help="also write full states every N steps to <out>.states.csv",
    )
    run_p.add_argument("--seed", type=int, help="seed for randomized fixtures (default 0)")
    run_p.add_argument(
        "--config",
        action="append",
        default=[],
        metavar="PATH",
        help="flat 'key = value' config file; repeatable, flags override",
    )

    check_p = sub.add_parser("check", help="print a structure report for a problem")
    check_p.add_argument("problem", help=f"one of: {', '.join(PROBLEM_NAMES)}")
    check_p.add_argument("--grid", type=int, help="grid size for spatial problems")
    check_p.add_argument("--seed", type=int, default=0, help="seed for manifold sampling")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _check_command(args.problem, args.grid, args.seed)
        return _run_command(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
