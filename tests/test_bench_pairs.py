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


def _checkout(root, name):
    """A directory holding a stub ``benchmarks/run.py`` that records each of
    its runs in ``ran`` and prints a correct record with every end-to-end
    metric of ``BENCHMARK.json`` at 1."""
    checkout = root / name
    (checkout / "benchmarks").mkdir(parents=True)
    spec = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
    (checkout / "benchmarks" / "run.py").write_text(
        "import json, pathlib\n"
        "with open(pathlib.Path(__file__).parent / 'ran', 'a') as f:\n"
        "    f.write('run\\n')\n"
        f"print(json.dumps({{'correct': True, 'metrics': {metrics!r}}}))\n"
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
