"""``tools/bench_pairs.py``: summaries on synthetic records, and the
checkout checks on stub checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "ms_per_step", "better": "lower", "bound": 0.25},
    {"name": "accepted_frac", "better": "higher", "bound": 0.01},
]


def _records(pairs):
    """Untraced records of one workload from ``(parent, change)`` pairs of
    ``(ms_per_step, accepted_frac)``."""
    out = []
    for k, sides in enumerate(pairs):
        for side, (ms, acc) in zip(("parent", "change"), sides):
            metrics = {"ms_per_step": {"value": ms}, "accepted_frac": {"value": acc}}
            out.append({"side": side, "pair": k, "trace": 0,
                        "record": {"correct": True, "metrics": metrics}})
    return out


def test_summary_reports_bound_and_worse_side_fraction():
    pairs = [((1.0, 0.9), (1.2, 0.9)), ((1.0, 0.9), (1.1, 0.9)), ((1.0, 0.9), (0.9, 0.9))]
    summary = bench_pairs.summarize(_records(pairs), END_TO_END)
    ms = summary["ms_per_step"]
    assert ms["bound"] == 0.25
    assert ms["worse_frac"] == pytest.approx(0.1)  # median 1.1 against 1.0, lower is better
    assert ms["change_better_pairs"] == 1
    assert summary["accepted_frac"]["worse_frac"] == 0.0
    assert summary["no_regression"] is True
    assert summary["all_correct"] is True


def test_summary_flags_a_metric_beyond_its_bound():
    # accepted_frac falls by 2 %, past its 1 % bound; ms_per_step is better
    pairs = [((1.0, 1.0), (0.8, 0.98))] * 3
    summary = bench_pairs.summarize(_records(pairs), END_TO_END)
    assert summary["ms_per_step"]["worse_frac"] == 0.0
    assert summary["accepted_frac"]["worse_frac"] == pytest.approx(0.02)
    assert summary["no_regression"] is False


def test_worse_frac_sides_and_zero_parent():
    assert bench_pairs.worse_frac(2.0, 2.5, "lower") == pytest.approx(0.25)
    assert bench_pairs.worse_frac(2.0, 1.5, "higher") == pytest.approx(0.25)
    assert bench_pairs.worse_frac(2.0, 1.5, "lower") == 0.0
    assert bench_pairs.worse_frac(0.0, 0.0, "lower") == 0.0
    assert bench_pairs.worse_frac(0.0, 1.0, "lower") is None


def test_summary_without_complete_pairs_claims_nothing():
    records = _records([((1.0, 1.0), (1.0, 1.0))])
    records[1]["record"] = {"correct": False, "error": "timed out"}
    summary = bench_pairs.summarize(records, END_TO_END)
    assert "ms_per_step" not in summary
    assert summary["no_regression"] is False
    assert summary["all_correct"] is False


def _gain(pairs):
    """``meets_gain_rule`` of ``ms_per_step`` for ``(parent, change)`` pairs."""
    records = _records([((p, 1.0), (c, 1.0)) for p, c in pairs])
    return bench_pairs.summarize(records, END_TO_END)["ms_per_step"]["meets_gain_rule"]


def test_gain_rule_holds_for_nine_of_ten_wins_with_a_wide_gap():
    pairs = [(5.0 + 0.01 * k, 3.6 + 0.01 * k) for k in range(9)] + [(5.0, 5.5)]
    assert _gain(pairs) is True


def test_gain_rule_fails_for_eight_of_ten_wins():
    pairs = [(5.0 + 0.01 * k, 3.6 + 0.01 * k) for k in range(8)] + [(5.0, 5.5), (5.0, 5.0)]
    assert _gain(pairs) is False  # the tie counts for neither side


def test_gain_rule_fails_for_a_gap_inside_the_parents_quartiles():
    # every pair is won, but by 0.05 against a parent spread of about 0.5
    pairs = [(5.0 + 0.1 * k, 4.95 + 0.1 * k) for k in range(10)]
    assert _gain(pairs) is False


def test_gain_rule_fails_on_fewer_than_ten_pairs():
    pairs = [(5.0 + 0.01 * k, 3.6 + 0.01 * k) for k in range(9)]
    assert _gain(pairs) is False


def test_gain_rule_is_judged_per_metric():
    pairs = [(5.0 + 0.01 * k, 3.6 + 0.01 * k) for k in range(10)]
    summary = bench_pairs.summarize(_records([((p, 1.0), (c, 1.0)) for p, c in pairs]), END_TO_END)
    assert summary["ms_per_step"]["meets_gain_rule"] is True
    assert summary["accepted_frac"]["meets_gain_rule"] is False  # ties everywhere


def _checkout(root, name, full=None):
    """A directory holding a stub ``benchmarks/run.py`` that records each of
    its runs in ``ran`` and prints a correct record with every end-to-end
    metric of ``BENCHMARK.json`` at 1, after the dict ``full`` as the full
    record when given."""
    checkout = root / name
    (checkout / "benchmarks").mkdir(parents=True)
    spec = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
    (checkout / "benchmarks" / "run.py").write_text(
        "import json, pathlib\n"
        "with open(pathlib.Path(__file__).parent / 'ran', 'a') as f:\n"
        "    f.write('run\\n')\n"
        + ("" if full is None else f"print(json.dumps({full!r}, indent=1))\n")
        + f"print(json.dumps({{'correct': True, 'metrics': {metrics!r}}}))\n"
    )
    return checkout


def _argv(parent, change, out):
    return ["--parent", str(parent), "--change", str(change), "--workload", "small-systems",
            "--first-seed", "1", "--pairs", "1", "--seconds", "1", "--out", str(out)]


def test_checkouts_whose_paths_differ_in_length_are_refused_before_any_run(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change-x")
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(_argv(parent, change, tmp_path / "out.json"))
    assert exc.value.code == 2
    message = capsys.readouterr().err
    assert f"{parent} ({len(str(parent))} characters)" in message
    assert f"{change} ({len(str(change))} characters)" in message
    assert not (parent / "benchmarks" / "ran").exists()
    assert not (change / "benchmarks" / "ran").exists()
    assert not (tmp_path / "out.json").exists()


def test_checkouts_of_equal_path_length_run_and_are_recorded(tmp_path):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change")
    out = tmp_path / "out.json"
    assert bench_pairs.main(_argv(parent, change, out)) == 0
    result = json.loads(out.read_text())
    assert str(parent) in result["method"] and str(change) in result["method"]
    assert result["summary"]["small-systems"]["no_regression"] is True
    for checkout in (parent, change):
        assert (checkout / "benchmarks" / "ran").read_text() == "run\n"


def _with_runs(records, digests, v_errs=None):
    """``records`` with a ``runs`` list added to each record: one run per
    entry of ``digests[i]``, the digests of record ``i``."""
    for i, (r, ds) in enumerate(zip(records, digests)):
        errs = v_errs[i] if v_errs else [1e-14] * len(ds)
        r["record"]["runs"] = [
            {"run": f"run{k}", "csv_sha256": d, "failed_at_step": None,
             "max_abs_V_err": e, "max_constraint_norm": None if e is None else 2 * e}
            for k, (d, e) in enumerate(zip(ds, errs))
        ]
    return records


def test_csv_identical_when_both_sides_write_the_same_digests():
    records = _records([((1.0, 1.0), (0.9, 1.0))] * 2)
    _with_runs(records, [["a", "b"]] * 4)
    assert bench_pairs.summarize(records, END_TO_END)["csv_identical"] is True


def test_csv_identical_is_false_when_one_pair_differs():
    records = _records([((1.0, 1.0), (0.9, 1.0))] * 3)
    _with_runs(records, [["a", "b"]] * 5 + [["a", "c"]])  # pair 2's change side
    assert bench_pairs.summarize(records, END_TO_END)["csv_identical"] is False


def test_csv_identical_is_none_without_runs_or_complete_pairs():
    records = _records([((1.0, 1.0), (0.9, 1.0))] * 2)
    assert bench_pairs.summarize(records, END_TO_END)["csv_identical"] is None
    _with_runs(records, [["a"]] * 4)
    del records[3]["record"]["runs"]
    assert bench_pairs.summarize(records, END_TO_END)["csv_identical"] is None
    records = _records([((1.0, 1.0), (1.0, 1.0))])
    records[1]["record"] = {"correct": False, "error": "timed out"}
    assert bench_pairs.summarize(records, END_TO_END)["csv_identical"] is None


def test_summary_reports_each_sides_largest_accuracy_figures():
    records = _records([((1.0, 1.0), (0.9, 1.0))] * 2)
    # parent, change, parent, change; a run without a CSV has None
    _with_runs(records, [["a", "b"]] * 4,
               [[1e-15, 3e-14], [2e-14, 1e-15], [5e-15, None], [1e-15, 4e-14]])
    summary = bench_pairs.summarize(records, END_TO_END)
    assert summary["parent_max_abs_V_err"] == 3e-14
    assert summary["change_max_abs_V_err"] == 4e-14
    assert summary["parent_max_constraint_norm"] == 6e-14
    assert summary["change_max_constraint_norm"] == 8e-14
    assert summary["no_regression"] is True  # the new fields are not metrics
    del records[0]["record"]["runs"], records[2]["record"]["runs"]
    assert bench_pairs.summarize(records, END_TO_END)["parent_max_abs_V_err"] is None


def test_run_summaries_read_the_full_record_before_the_last_line():
    full = {"workload": "w", "runs": [
        {"run": "p/s", "argv": "run ...", "exit_code": 2, "accepted_steps": 441,
         "failed_at_step": 442, "max_abs_V_err": 0.99, "max_constraint_norm": 2e-4,
         "csv_sha256": "ab12", "gates_broken": []}]}
    last = json.dumps({"correct": True, "metrics": {}})
    lines = ["progress", *json.dumps(full, indent=1).splitlines(), last]
    assert bench_pairs.run_summaries(lines) == [
        {"run": "p/s", "csv_sha256": "ab12", "failed_at_step": 442,
         "max_abs_V_err": 0.99, "max_constraint_norm": 2e-4}]
    assert bench_pairs.run_summaries([last]) is None
    assert bench_pairs.run_summaries(["{", " \"runs\": [", last]) is None
    assert bench_pairs.run_summaries(["{", "}", last]) is None


def test_stub_checkouts_without_a_full_record_give_none(tmp_path):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change")
    out = tmp_path / "out.json"
    assert bench_pairs.main(_argv(parent, change, out)) == 0
    result = json.loads(out.read_text())
    summary = result["summary"]["small-systems"]
    assert summary["csv_identical"] is None
    assert summary["parent_max_abs_V_err"] is None
    assert all(r["record"]["runs"] is None for r in result["records"])


def test_runs_summary_reports_csv_identity_run_by_run():
    records = _records([((1.0, 1.0), (0.9, 1.0))] * 3)
    _with_runs(records, [["a", "b"]] * 5 + [["a", "c"]])  # pair 2's change side, run1
    runs = bench_pairs.summarize_runs(records)
    assert list(runs) == ["run0", "run1"]
    assert runs["run0"]["csv_identical"] is True
    assert runs["run1"]["csv_identical"] is False
    assert bench_pairs.summarize(records, END_TO_END)["csv_identical"] is False


def test_runs_summary_keeps_each_runs_accuracy_apart():
    records = _records([((1.0, 1.0), (0.9, 1.0))] * 2)
    # parent, change, parent, change; run1 is a dissipation figure near 1
    _with_runs(records, [["a", "b"]] * 4,
               [[1e-14, 0.99], [2e-14, 0.99], [3e-15, None], [5e-15, 0.98]])
    runs = bench_pairs.summarize_runs(records)
    assert runs["run0"]["parent_max_abs_V_err"] == 1e-14
    assert runs["run0"]["change_max_abs_V_err"] == 2e-14
    assert runs["run0"]["parent_max_constraint_norm"] == 2e-14
    assert runs["run0"]["change_max_constraint_norm"] == 4e-14
    assert runs["run1"]["change_max_abs_V_err"] == 0.99
    # the workload's summary sees only the largest, run1's
    assert bench_pairs.summarize(records, END_TO_END)["change_max_abs_V_err"] == 0.99


def test_runs_summary_is_none_for_a_run_missing_from_a_complete_pair():
    records = _records([((1.0, 1.0), (0.9, 1.0))] * 2)
    _with_runs(records, [["a", "b"]] * 3 + [["a"]])  # pair 1's change side lacks run1
    runs = bench_pairs.summarize_runs(records)
    assert runs["run0"]["csv_identical"] is True
    assert runs["run1"]["csv_identical"] is None
    records = _with_runs(_records([((1.0, 1.0), (1.0, 1.0))]), [["a"], ["a"]])
    records[1]["record"] = {"correct": False, "error": "timed out"}
    assert bench_pairs.summarize_runs(records)["run0"]["csv_identical"] is None


def test_runs_summary_is_written_beside_the_workload_summary(tmp_path):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change")
    out = tmp_path / "out.json"
    assert bench_pairs.main(_argv(parent, change, out)) == 0
    result = json.loads(out.read_text())
    assert result["runs_summary"] == {"small-systems": {}}  # stubs print no full record
    # every dict in the workload's summary is still a metric
    summary = result["summary"]["small-systems"]
    assert all("meets_gain_rule" in v for v in summary.values() if isinstance(v, dict))


def test_host_figures_keep_the_unscaled_medians_and_the_median_speed_factor():
    unscaled = {"ms_per_step": 9.25, "steps_per_s": 104.0, "setup_s": 0.0152}
    full = {"workload": "w", "speed_factors": [2.4, 2.6, 2.5, 2.9], "unscaled": unscaled}
    lines = ["progress", *json.dumps(full, indent=1).splitlines(), json.dumps({"correct": True})]
    assert bench_pairs.host_figures(lines) == {"unscaled": unscaled, "speed_factor_median": 2.55}
    # a traced run's full record has no speed factors
    full["speed_factors"] = []
    lines = [*json.dumps(full, indent=1).splitlines(), json.dumps({"correct": True})]
    assert bench_pairs.host_figures(lines)["speed_factor_median"] is None
    empty = {"unscaled": None, "speed_factor_median": None}
    assert bench_pairs.host_figures([json.dumps({"correct": True})]) == empty


def test_each_record_carries_its_runs_unscaled_medians_and_speed_factor(tmp_path):
    full = {"speed_factors": [2.0, 3.0], "unscaled": {"ms_per_step": 9.5}}
    parent = _checkout(tmp_path, "parent", full)
    change = _checkout(tmp_path, "change")
    out = tmp_path / "out.json"
    assert bench_pairs.main(_argv(parent, change, out)) == 0
    records = {r["side"]: r["record"] for r in json.loads(out.read_text())["records"]}
    assert records["parent"]["unscaled"] == {"ms_per_step": 9.5}
    assert records["parent"]["speed_factor_median"] == 2.5
    assert records["change"]["unscaled"] is None  # the stub prints no full record
    assert records["change"]["speed_factor_median"] is None


def _with_host(records, figures):
    """``records`` with ``unscaled.ms_per_step`` and ``speed_factor_median``
    set from ``figures[i]``, a pair of them (or None for no full record)."""
    for r, fig in zip(records, figures):
        ms, factor = fig if fig is not None else (None, None)
        r["record"]["unscaled"] = None if ms is None else {"ms_per_step": ms}
        r["record"]["speed_factor_median"] = factor
    return records


def test_host_summary_gives_each_sides_medians_and_their_ratios():
    records = _records([((1.0, 1.0), (0.9, 1.0))] * 3)
    # parent, change per pair: the change is faster before scaling, on one host speed
    _with_host(records, [(9.0, 2.5), (8.0, 2.4), (9.5, 2.5), (8.5, 2.5), (10.0, 2.6), (7.5, 2.5)])
    host = bench_pairs.summarize_host(records)
    assert host == {
        "parent_unscaled_ms_per_step": 9.5, "change_unscaled_ms_per_step": 8.0,
        "unscaled_ms_per_step_ratio": pytest.approx(8.0 / 9.5),
        "parent_speed_factor_median": 2.5, "change_speed_factor_median": 2.5,
        "speed_factor_median_ratio": 1.0,
    }
    # the scaled summary is unchanged by these figures
    assert "unscaled_ms_per_step" not in bench_pairs.summarize(records, END_TO_END)


def test_host_summary_skips_runs_without_a_full_record_and_gives_none_for_an_empty_side():
    records = _records([((1.0, 1.0), (0.9, 1.0))] * 2)
    _with_host(records, [(9.0, 2.5), None, (10.0, 2.7), None])
    host = bench_pairs.summarize_host(records)
    assert host["parent_unscaled_ms_per_step"] == 9.5
    assert host["parent_speed_factor_median"] == pytest.approx(2.6)
    assert host["change_unscaled_ms_per_step"] is None
    assert host["unscaled_ms_per_step_ratio"] is None
    assert host["speed_factor_median_ratio"] is None
    records[3]["record"] = {"correct": False, "error": "timed out"}
    assert bench_pairs.summarize_host(records)["change_speed_factor_median"] is None


def test_host_summary_is_written_beside_the_workload_summary(tmp_path):
    full = {"speed_factors": [2.0, 3.0], "unscaled": {"ms_per_step": 9.5}}
    parent = _checkout(tmp_path, "parent", full)
    change = _checkout(tmp_path, "change", full)
    out = tmp_path / "out.json"
    assert bench_pairs.main(_argv(parent, change, out)) == 0
    result = json.loads(out.read_text())
    host = result["host_summary"]["small-systems"]
    assert host["parent_unscaled_ms_per_step"] == host["change_unscaled_ms_per_step"] == 9.5
    assert host["unscaled_ms_per_step_ratio"] == 1.0
    assert host["speed_factor_median_ratio"] == 1.0
    # every dict in the workload's summary is still a metric
    summary = result["summary"]["small-systems"]
    assert all("meets_gain_rule" in v for v in summary.values() if isinstance(v, dict))


def test_each_run_compiles_under_a_fresh_pycache_prefix_of_its_own(tmp_path):
    # each stub run records the bytecode prefix it was given, whether that
    # directory existed and was empty, and where it lies
    checkouts = []
    for name in ("parent", "change"):
        checkout = _checkout(tmp_path, name)
        run_py = checkout / "benchmarks" / "run.py"
        run_py.write_text(
            "import os, pathlib, sys\n"
            "prefix = sys.pycache_prefix\n"
            "with open(pathlib.Path(__file__).parent / 'prefixes', 'a') as f:\n"
            "    f.write(f'{prefix}|{os.environ[\"PYTHONPYCACHEPREFIX\"] == prefix}|'\n"
            "            f'{os.path.isdir(prefix) and not os.listdir(prefix)}\\n')\n"
            + run_py.read_text()
        )
        checkouts.append(checkout)
    argv = _argv(*checkouts, tmp_path / "out.json")
    argv[argv.index("--pairs") + 1] = "2"
    assert bench_pairs.main(argv) == 0
    seen = []
    for checkout in checkouts:
        lines = (checkout / "benchmarks" / "prefixes").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            prefix, from_env, fresh = line.split("|")
            assert from_env == fresh == "True"
            assert not Path(prefix).exists()  # removed after its run
            assert not Path(prefix).resolve().is_relative_to(tmp_path.resolve())
            seen.append(prefix)
    assert len(set(seen)) == 4
