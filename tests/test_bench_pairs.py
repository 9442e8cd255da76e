"""The pair runner's summary step and its run order (``tools/bench_pairs.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(pair, side, **metrics):
    return {"workload": "dominators", "seed": 1, "pair": pair, "side": side,
            "failed": 0, "attempted": 10, "metrics": metrics}


def test_summary_rows_take_medians_quartiles_and_wins_per_pair():
    runs = [
        _run(0, "parent", speed=10.0, cost=5.0),
        _run(0, "change", speed=12.0, cost=5.0),  # cost ties: neither wins
        _run(1, "change", speed=9.0, cost=4.0),
        _run(1, "parent", speed=11.0, cost=6.0),
        _run(2, "parent", speed=12.0, cost=7.0),
        _run(2, "change", speed=15.0, cost=8.0),
        _run(3, "parent", speed=99.0, cost=99.0),  # unfinished pair
    ]
    rows = bench_pairs.summarize(runs, {"speed": "higher", "cost": "lower"})
    assert [r["metric"] for r in rows] == ["speed", "cost"]
    speed, cost = rows
    assert speed["pairs"] == cost["pairs"] == 3
    assert (speed["parent_median"], speed["change_median"]) == (11.0, 12.0)
    assert (speed["parent_q1"], speed["parent_q3"]) == (10.5, 11.5)
    assert (speed["change_q1"], speed["change_q3"]) == (10.5, 13.5)
    assert speed["change_wins"] == 2
    assert speed["change_vs_parent"] == pytest.approx(0.0909)
    assert cost["better"] == "lower"
    assert cost["change_wins"] == 1  # pair 1 only; pair 0 is a tie
    assert cost["change_vs_parent"] == pytest.approx(-1 / 6, abs=1e-4)


def test_summary_rows_flag_a_median_worse_than_its_bound():
    runs = []
    for pair, (p_speed, c_speed, p_cost, c_cost) in enumerate(
        [(10.0, 7.0, 4.0, 5.1), (10.0, 7.4, 4.0, 4.9), (10.0, 8.0, 4.0, 4.0)]
    ):
        runs += [_run(pair, "parent", speed=p_speed, cost=p_cost, size=1.0),
                 _run(pair, "change", speed=c_speed, cost=c_cost, size=9.0)]
    better = {"speed": "higher", "cost": "lower", "size": "lower"}
    rows = bench_pairs.summarize(runs, better, {"speed": 0.25, "cost": 0.25})
    speed, cost, size = rows
    # speed: median 7.4 against 10, 26% worse; cost: 4.9 against 4, 22.5% worse
    assert (speed["bound"], speed["beyond_bound"]) == (0.25, True)
    assert (cost["bound"], cost["beyond_bound"]) == (0.25, False)
    assert "bound" not in size and "beyond_bound" not in size
    # a gain is never beyond the bound, in either direction
    flipped = {"speed": "lower", "cost": "higher"}
    assert not any(r["beyond_bound"] for r in bench_pairs.summarize(
        runs, flipped, {"speed": 0.01, "cost": 0.01}))


def _series(parent, change):
    """Runs of ``speed`` (higher is better) and its mirror ``cost`` (lower
    is better), pair by pair from the two sides' value lists."""
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs += [_run(pair, "parent", speed=p, cost=1000 - p),
                 _run(pair, "change", speed=c, cost=1000 - c)]
    return runs


# median 104.5 and quartiles 102.25 and 106.75: an interquartile range of 4.5
_PARENT = [100.0 + i for i in range(10)]


@pytest.mark.parametrize("change, shown", [
    # 9 of 10 pairs won; medians 109.5 (gain 5) and 108.5 (gain 4)
    ([p + 6 for p in _PARENT[:9]] + [108.0], True),
    ([p + 5 for p in _PARENT[:9]] + [108.0], False),
    # a gain of exactly the interquartile range is not more than it
    ([p + 5.5 for p in _PARENT[:9]] + [108.0], False),
    # a large gain, but 8 of 10 pairs won
    ([p + 20 for p in _PARENT[:8]] + [107.0, 108.0], False),
    # 10 of 10 pairs won by a gain inside the spread
    ([p + 1 for p in _PARENT], False),
    # a loss in every pair
    ([p - 20 for p in _PARENT], False),
], ids=["wins-9-gain-above", "wins-9-gain-below", "wins-9-gain-equal",
        "wins-8-gain-above", "wins-10-gain-below", "losses"])
def test_a_gain_is_shown_by_9_of_10_wins_and_a_median_beyond_the_spread(change, shown):
    speed, cost = bench_pairs.summarize(
        _series(_PARENT, change), {"speed": "higher", "cost": "lower"})
    assert speed["parent_q3"] - speed["parent_q1"] == 4.5
    assert cost["parent_q3"] - cost["parent_q1"] == 4.5
    # the same verdict in either direction of better
    assert speed["gain_shown"] is shown
    assert cost["gain_shown"] is shown


def test_the_bounds_come_from_the_benchmark_spec():
    _, better, bounds = bench_pairs.load_benchmark()
    assert set(bounds) == set(better)
    assert bounds["bytes_per_tuple"] == 0.05


def test_summary_keeps_workloads_and_seeds_apart():
    runs = [_run(0, "parent", speed=1.0), _run(0, "change", speed=2.0)]
    other = [dict(r, seed=7919, metrics={"speed": 4.0}) for r in runs]
    rows = bench_pairs.summarize(runs + other, {"speed": "higher"})
    assert [(r["seed"], r["change_wins"]) for r in rows] == [(1, 1), (7919, 0)]


def test_summary_rows_total_each_sides_failures_over_complete_pairs():
    runs = [
        dict(_run(0, "parent", speed=1.0), failed=0, attempted=10),
        dict(_run(0, "change", speed=2.0), failed=3, attempted=12),
        dict(_run(1, "change", speed=2.0), failed=1, attempted=11),
        dict(_run(1, "parent", speed=1.0), failed=2, attempted=9),
        dict(_run(2, "parent", speed=1.0), failed=50, attempted=50),  # unfinished
    ]
    other = [dict(r, seed=7919, failed=0) for r in runs[:2]]
    rows = bench_pairs.summarize(runs + other, {"speed": "higher"})
    totals = [
        {k: r[k] for k in ("parent_failed", "parent_attempted",
                           "change_failed", "change_attempted")}
        for r in rows
    ]
    assert totals == [
        {"parent_failed": 2, "parent_attempted": 19,
         "change_failed": 4, "change_attempted": 23},
        {"parent_failed": 0, "parent_attempted": 10,
         "change_failed": 0, "change_attempted": 12},
    ]


def test_a_run_with_failures_warns_on_stderr(monkeypatch, capsys):
    failures = {"P": 0, "C": 4}

    def fake_run_once(checkout, workload, seed, seconds):
        return {"failed": failures[checkout], "attempted": 20, "metrics": {}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    bench_pairs.run_pair({"parent": "P", "change": "C"}, "mixed", 7, 0, 12)
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: mixed seed 7 pair 0 change: 4 of 20 operations failed"]
    failures["C"] = 0
    bench_pairs.run_pair({"parent": "P", "change": "C"}, "mixed", 7, 1, 12)
    assert capsys.readouterr().err == ""


def test_the_side_that_runs_first_alternates_by_pair_parity(monkeypatch):
    order = []

    def fake_run_once(checkout, workload, seed, seconds):
        order.append(checkout)
        return {"failed": 0, "attempted": 1, "metrics": {}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    checkouts = {"parent": "P", "change": "C"}
    for pair in range(3):
        rows = bench_pairs.run_pair(checkouts, "mixed", 1, pair, 12)
        assert [r["side"] for r in rows] == ["parent", "change"]
        assert rows[pair % 2]["ran_first"]
    assert order == ["P", "C", "C", "P", "P", "C"]


def test_run_seconds_and_directions_come_from_the_benchmark_spec():
    seconds, better, _ = bench_pairs.load_benchmark()
    assert seconds > 0
    assert better["dom_vertices_per_s"] == "higher"
    assert better["bytes_per_tuple"] == "lower"


def test_append_starts_a_report_where_there_is_none(monkeypatch, tmp_path):
    def fake_run_once(checkout, workload, seed, seconds):
        return {"failed": 0, "attempted": 1, "metrics": {"speed": 1.0}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "BENCH_new.json"
    argv = ["P", "C", "--workload", "mixed", "--seed", "1", "--pairs", "1",
            "--output", str(out), "--append"]
    assert bench_pairs.main(argv) == 0
    assert bench_pairs.main(argv) == 0  # the second call extends the first's report
    runs = json.loads(out.read_text())["runs"]
    assert [(r["pair"], r["side"]) for r in runs] == [
        (0, "parent"), (0, "change"), (1, "parent"), (1, "change"),
    ]


def _checkout_without_sources(root):
    """A checkout with perfbench's runner but no ``src/``."""
    (root / "perfbench").mkdir(parents=True)
    runner = _PATH.parent.parent / "perfbench" / "run.py"
    (root / "perfbench" / "run.py").write_text(runner.read_text())
    return root


def test_a_failing_run_names_its_checkout_command_exit_code_and_stderr(tmp_path):
    checkout = _checkout_without_sources(tmp_path / "bare")
    with pytest.raises(bench_pairs.RunFailed) as failed:
        bench_pairs.run_once(checkout, "mixed", 1, 1)
    message = str(failed.value)
    assert f"run failed in {checkout}" in message
    assert "perfbench/run.py --workload mixed --seed 1 --seconds 1 --trace 0" in message
    assert "exit code: 1" in message
    assert f"perfbench: no leantrie sources under {checkout / 'src'}" in message


def test_a_failing_run_stops_the_series_and_keeps_the_report(monkeypatch, tmp_path, capsys):
    def fake_run_once(checkout, workload, seed, seconds):
        if workload == "dominators":
            raise bench_pairs.RunFailed(f"run failed in {checkout}")
        return {"failed": 0, "attempted": 1, "metrics": {"speed": 1.0}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "BENCH_cut.json"
    argv = ["P", "C", "--workload", "mixed", "--workload", "dominators",
            "--seed", "1", "--pairs", "2", "--output", str(out)]
    assert bench_pairs.main(argv) == 1
    assert "bench_pairs: run failed in" in capsys.readouterr().err
    runs = json.loads(out.read_text())["runs"]
    assert [(r["workload"], r["pair"]) for r in runs] == [("mixed", 0)] * 2 + [("mixed", 1)] * 2


_CANNED_SUMMARY = [
    {"workload": "mixed", "seed": 1, "metric": "put_us_p50", "better": "lower",
     "parent_median": 12.91, "parent_q1": 12.8, "parent_q3": 13.02,
     "change_median": 11.73, "change_q1": 11.6, "change_q3": 11.9,
     "change_wins": 10, "pairs": 10, "gain_shown": True, "change_vs_parent": -0.0914,
     "bound": 0.25, "beyond_bound": False},
    {"workload": "dominators", "seed": 7919, "metric": "dom_vertices_per_s",
     "better": "higher", "parent_median": 43113.4, "parent_q1": 42000.0,
     "parent_q3": 44000.0, "change_median": 42682.0, "change_q1": 42000.0,
     "change_q3": 43000.0, "change_wins": 2, "pairs": 5, "gain_shown": False,
     "change_vs_parent": -0.01},
]


def test_summary_lines_give_each_rows_claim_fields():
    assert bench_pairs.summary_lines(_CANNED_SUMMARY) == [
        "mixed seed 1 put_us_p50: parent 12.91 change 11.73 (-9.1%), wins 10/10, "
        "parent IQR 1.7%, gain_shown True, beyond_bound False",
        "dominators seed 7919 dom_vertices_per_s: parent 43,113 change 42,682 (-1.0%), "
        "wins 2/5, parent IQR 4.6%, gain_shown False, beyond_bound -",
    ]


def test_a_series_prints_its_summary_at_the_end(monkeypatch, tmp_path, capsys):
    speeds = {"P": 10.0, "C": 12.0}

    def fake_run_once(checkout, workload, seed, seconds):
        speed = speeds[Path(checkout).name]
        return {"failed": 0, "attempted": 1, "metrics": {"build_tuples_per_s": speed}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "BENCH_printed.json"
    argv = ["P", "C", "--workload", "build", "--seed", "3", "--pairs", "2", "--output", str(out)]
    assert bench_pairs.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    summary = json.loads(out.read_text())["summary"]
    assert printed == bench_pairs.summary_lines(summary)
    assert printed == [
        "build seed 3 build_tuples_per_s: parent 10 change 12 (+20.0%), wins 2/2, "
        "parent IQR 0.0%, gain_shown True, beyond_bound False",
    ]
