"""Command-line experiment driver.

Two subcommands:

* ``run`` integrates a built-in problem with one of the schemes and writes
  a CSV time series (stdout unless ``--out`` is given).  Mid-run solver
  failures keep the partial CSV, append ``# failed at step N``, and exit
  with status 2; any bad invocation (unknown flag, bad flag value, bad
  name, unwritable path) exits with status 1.
* ``check`` prints a structure report for a problem: mass-matrix rank and
  pseudoinverse quality, properness of each named invariant at sampled
  on-manifold states, and the conservative/dissipative verdict.

Every ``run`` option, with its type, default and range, is defined once in
:func:`build_parser`.  Configuration may also come from flat
``key = value`` files (``--config``, repeatable; ``#`` starts a comment):
each line becomes the token ``--key=value`` (keys take ``-`` or ``_``)
placed before the command-line tokens, so explicit flags override file
values.  Several config files form a batch that runs one after another,
each writing its own output file.

The CSV layout is fixed: ``step,t,V,V_err,constraint_norm,c_norm,
newton_iters,newton_residual`` followed by one column per extra invariant
(plus ``<name>_err`` for drift-tracked ones).  Floats carry 17 significant
digits so that re-runs are byte-identical; lines end with LF.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from .errors import StepFailure
from .integrators import SCHEMES, NewtonConfig, Trajectory, integrate
from .linalg import penrose_residuals
from .model import LinearGradientDAE, check_proper, verify_structure
from .problems import PROBLEM_NAMES, ProblemSpec, make_problem

__all__ = ["main"]


class CliError(Exception):
    """Invalid invocation; the message goes to stderr and the exit code is 1."""


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as :class:`CliError`; subparsers inherit this."""

    def error(self, message):
        raise CliError(message)


def _positive(kind, or_zero=False):
    """An argparse ``type`` that parses with ``kind`` and requires a finite
    ``> 0``, or ``>= 0`` when ``or_zero``."""
    wanted = "non-negative" if or_zero else "positive"

    def parse(text: str):
        value = kind(text)
        if not ((value >= 0 if or_zero else value > 0) and value < math.inf):
            raise argparse.ArgumentTypeError(f"must be finite and {wanted}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _config_tokens(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """One ``--key=value`` token per ``key = value`` line of a config file.

    Each token is checked on its own with the ``run`` parser, so a bad
    value is reported with its file and line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    keys = set(vars(parser.parse_args(["run"]))) - {"command", "config"}
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        if key.replace("-", "_") not in keys:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        token = f"--{key.replace('_', '-')}={value.strip()}"
        try:
            parser.parse_args(["run", token])
        except CliError as exc:
            raise CliError(f"{path}:{lineno}: bad value: {exc}") from None
        tokens.append(token)
    return tokens


def _run_invocations(parser: argparse.ArgumentParser, argv: list[str], paths: list[str]):
    """The resolved ``run`` namespaces: one per config file, or one without.

    Config-file tokens go before the command-line ones, so flags win.
    """
    at = argv.index("run") + 1
    file_tokens = [_config_tokens(parser, path) for path in paths] or [[]]
    runs = [parser.parse_args(argv[:at] + tokens + argv[at:]) for tokens in file_tokens]
    for args in runs:
        if args.problem is None:
            raise CliError("no problem selected (pass --problem or set it in a config file)")
        if args.snapshot_every is not None and args.out is None:
            raise CliError("--snapshot-every needs --out (snapshots go to <out>.states.csv)")
    if len(runs) > 1:
        outs = [args.out for args in runs]
        if None in outs:
            raise CliError("every config in a batch needs its own 'out' path")
        if len(set(outs)) != len(outs):
            raise CliError("batch configs must write to distinct 'out' paths")
    return runs


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


def _execute_run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        spec = make_problem(args.problem, grid=args.grid, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    scheme = args.scheme or spec.schemes[0]
    if scheme not in spec.schemes:
        print(f"error: problem {spec.name!r} ({spec.index_note}) does not accept scheme "
              f"{scheme!r}; accepted: {', '.join(spec.schemes)}", file=sys.stderr)
        return 1
    newton_cfg = NewtonConfig(residual_tol=args.newton_tol, max_iters=args.newton_max_iters)

    failure: StepFailure | None = None
    try:
        traj = integrate(
            spec.dae,
            scheme,
            spec.default_initial_state,
            args.dt,
            args.steps,
            observers=spec.observers,
            cfg=newton_cfg,
        )
    except StepFailure as exc:
        failure = exc
        traj = exc.trajectory

    rows = _csv_rows(spec, traj)
    if failure is not None:
        rows.append(f"# failed at step {failure.step_index}")
    if args.out is None:
        sys.stdout.write("\n".join(rows) + "\n")
    else:
        _write_text(args.out, rows)
    if args.snapshot_every is not None:
        _write_text(f"{args.out}.states.csv", _snapshot_rows(traj, args.snapshot_every))

    elapsed = time.perf_counter() - started
    print(
        f"# elapsed: {elapsed:.3f} s ({args.problem}/{scheme}, {len(traj) - 1} steps recorded)",
        file=sys.stderr,
    )
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 2
    return 0


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

    samples = list(spec.sample_on_manifold(np.random.default_rng(seed), 20))
    print(f"invariants at {len(samples)} on-manifold samples:")
    for field in spec.observers:
        checks = [check_proper(dae, z, field=field) for z in samples]
        worst = max(c.residual for c in checks)
        verdict = "proper" if all(c.passed for c in checks) else "NOT proper"
        print(f"  {field.name}: {verdict} (max residual {worst:.3e})")

    if isinstance(dae, LinearGradientDAE) and dae.structure_claim != "none":
        label = dae.structure_claim
        first = dae.S(samples[0])
        if all(dae.S(z) is first for z in samples[1:]):  # the discrete-gradient step's one rule
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
    parser = _Parser(
        prog="daegrad",
        description="Structure-preserving integrators for DAEs with conservation laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate a problem and write a CSV time series")
    run_p.add_argument("--problem", help=f"one of: {', '.join(PROBLEM_NAMES)}")
    run_p.add_argument("--scheme", help=f"one of: {', '.join(SCHEMES)} (default: the problem's recommendation)")
    run_p.add_argument("--dt", type=_positive(float), default=0.1, help="time step (default %(default)s)")
    run_p.add_argument("--steps", type=_positive(int), default=100, help="number of steps (default %(default)s)")
    run_p.add_argument("--grid", type=int, help="grid size for spatial problems")
    run_p.add_argument("--newton-tol", type=_positive(float), default=NewtonConfig.residual_tol, help="Newton residual tolerance (default %(default)s)")
    run_p.add_argument("--newton-max-iters", type=_positive(int), default=NewtonConfig.max_iters, help="Newton iteration cap (default %(default)s)")
    run_p.add_argument("--out", help="CSV output path (default: stdout)")
    run_p.add_argument("--snapshot-every", type=_positive(int), help="also write full states every N steps to <out>.states.csv")
    run_p.add_argument("--seed", type=_positive(int, or_zero=True), default=0, help="seed for randomized fixtures (default %(default)s)")
    run_p.add_argument(
        "--config",
        action="append",
        default=[],
        metavar="PATH",
        help="flat 'key = value' config file (keys are the flag names, with - or _); "
        "repeatable, flags override",
    )

    check_p = sub.add_parser("check", help="print a structure report for a problem")
    check_p.add_argument("problem", help=f"one of: {', '.join(PROBLEM_NAMES)}")
    check_p.add_argument("--grid", type=int, help="grid size for spatial problems")
    check_p.add_argument("--seed", type=_positive(int, or_zero=True), default=0, help="seed for manifold sampling")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "check":
            return _check_command(args.problem, args.grid, args.seed)
        return max(_execute_run(run) for run in _run_invocations(parser, argv, args.config))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # only -h gets here: error() raises CliError
        return exc.code
