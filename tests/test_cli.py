"""The command-line entry point: outputs, defaults, and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import leantrie
from leantrie import bench
from leantrie.bench import FOOTPRINT_COLUMNS, run_footprint, write_csv, write_json
from leantrie.cli import _parse_mix, _parse_sizes, build_parser, main

TS = "2026-01-02T03:04:05+00:00"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- argument parsing helpers ---------------------------------------------------------


def test_size_ranges_and_lists():
    assert _parse_sizes("6..9") == (6, 7, 8, 9)
    assert _parse_sizes("4,8,12") == (4, 8, 12)
    assert _parse_sizes("3,5..7") == (3, 5, 6, 7)
    with pytest.raises(ValueError):
        _parse_sizes("9..6")
    with pytest.raises(ValueError):
        _parse_sizes("six")


def test_mix_ratios():
    assert _parse_mix("50:50") == 0.5
    assert _parse_mix("100:0") == 1.0
    assert _parse_mix("1:3") == 0.25
    with pytest.raises(ValueError):
        _parse_mix("0.5")
    with pytest.raises(ValueError):
        _parse_mix("0:0")


def test_default_grids_match_the_documented_runs():
    parser = build_parser()
    bench_args = parser.parse_args(["bench"])
    assert bench_args.sizes == tuple(range(6, 17))
    assert bench_args.seeds == 5
    assert bench_args.mix == 1.0  # the grid the plain-map comparison needs
    fp_args = parser.parse_args(["footprint"])
    assert fp_args.sizes == tuple(range(6, 17))
    assert fp_args.mix == 0.5
    dom_args = parser.parse_args(["dominators"])
    assert dom_args.random is None  # filled in as 128,256,512 when no files
    assert dom_args.graphs_per_size == 100


# -- happy paths ------------------------------------------------------------------------


def test_footprint_csv_to_stdout_matches_the_library_writer(capsys):
    rc, out, err = run_cli(capsys, "footprint", "--sizes", "4,5")
    assert rc == 0 and err == ""
    expected = io.StringIO()
    write_csv(run_footprint((4, 5)), FOOTPRINT_COLUMNS, expected)
    assert out == expected.getvalue()


def test_footprint_json_is_reproducible_with_a_pinned_timestamp(capsys):
    rc, out, err = run_cli(
        capsys, "footprint", "--sizes", "4", "--format", "json", "--timestamp", TS
    )
    assert rc == 0
    expected = io.StringIO()
    write_json(
        run_footprint((4,)),
        FOOTPRINT_COLUMNS,
        expected,
        TS,
        config={"sizes": [4], "mix": 0.5, "seed": 0},
    )
    assert out == expected.getvalue()
    assert json.loads(out)["metadata"]["generated_at"] == TS


def test_footprint_writes_to_a_file(tmp_path, capsys):
    target = tmp_path / "footprint.csv"
    rc, out, _ = run_cli(capsys, "footprint", "--sizes", "4", "--output", str(target))
    assert rc == 0 and out == ""
    rows = list(csv.DictReader(target.open()))
    assert {r["structure"] for r in rows} == {"multimap", "map_of_sets"}
    assert all(r["size_exponent"] == "4" for r in rows)


def test_bench_runs_a_small_grid(capsys):
    rc, out, _ = run_cli(
        capsys,
        "bench",
        "--sizes", "2,3",
        "--seeds", "1",
        "--warmup", "0",
        "--measured", "1",
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    # default mix is pure 1:1, so all three structures join:
    # 2 sizes x 1 seed x 3 structures x 8 operations
    assert len(rows) == 48
    assert {r["structure"] for r in rows} == {"multimap", "map_of_sets", "map"}
    assert {r["operation"] for r in rows} == set(bench.OPERATIONS)
    assert all(float(r["median_ns"]) > 0 for r in rows)

    rc, out, _ = run_cli(
        capsys,
        "bench",
        "--sizes", "2",
        "--seeds", "1",
        "--warmup", "0",
        "--measured", "1",
        "--mix", "50:50",
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    # a 1:2-bearing mix drops the plain map from the default set
    assert {r["structure"] for r in rows} == {"multimap", "map_of_sets"}


def test_bench_structure_filter(capsys):
    rc, out, _ = run_cli(
        capsys,
        "bench",
        "--sizes", "2",
        "--seeds", "1",
        "--warmup", "0",
        "--measured", "1",
        "--structures", "multimap",
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["structure"] for r in rows} == {"multimap"}


def test_bench_operation_filter(capsys):
    rc, out, _ = run_cli(
        capsys,
        "bench",
        "--sizes", "2",
        "--seeds", "1",
        "--warmup", "0",
        "--measured", "1",
        "--operations", "lookup,delete",
    )
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["operation"] for r in rows] == ["lookup", "delete"] * 3
    rc, _, err = run_cli(capsys, "bench", "--sizes", "2", "--operations", "sort")
    assert rc == 2 and "unknown operation 'sort'" in err


def test_dominators_reads_edge_list_files(tmp_path, capsys):
    graph_file = tmp_path / "diamond.cfg"
    graph_file.write_text("entry a\na b\na c\nb d\nc d\n")
    rc, out, _ = run_cli(capsys, "dominators", "--graph", str(graph_file))
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rc == 0
    assert [r["graph_name"] for r in rows] == ["diamond.cfg"]
    assert rows[0]["vertices"] == "4"
    assert rows[0]["preds_pct_1to1"] == "66.67"


def test_a_graph_file_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    plain = tmp_path / "plain.edges"
    plain.write_bytes(b"entry A\nA B\n")
    bom = tmp_path / "bom.edges"
    bom.write_bytes(b"\xef\xbb\xbfentry A\nA B\n")
    rows = {}
    for path in (plain, bom):
        rc, out, err = run_cli(capsys, "dominators", "--graph", str(path), "--format", "json")
        assert (rc, err) == (0, "")
        (row,) = json.loads(out)["rows"]
        rows[path.name] = {k: v for k, v in row.items() if k not in ("graph_name", "runtime_ns")}
    assert rows["bom.edges"] == rows["plain.edges"]


def test_dominators_scans_a_directory_in_sorted_order(tmp_path, capsys):
    cfgs = tmp_path / "cfgs"
    cfgs.mkdir()
    (cfgs / "b.cfg").write_text("entry x\nx y\n")
    (cfgs / "a.cfg").write_text("entry p\np q\np r\n")
    rc, out, _ = run_cli(capsys, "dominators", "--graph", str(cfgs))
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rc == 0
    assert [r["graph_name"] for r in rows] == ["a.cfg", "b.cfg"]
    # paths are read in command-line order: a file, then a directory's
    # files in sorted order, then a file again
    first = tmp_path / "z.cfg"
    first.write_text("entry a\na b\na c\nb d\nc d\n")
    rc, out, _ = run_cli(
        capsys, "dominators", "--graph", str(first), "--graph", str(cfgs),
        "--graph", str(cfgs / "b.cfg"),
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rc == 0
    assert [(r["graph_name"], r["vertices"]) for r in rows] == [
        ("z.cfg", "4"), ("a.cfg", "3"), ("b.cfg", "2"), ("b.cfg", "2"),
    ]


def test_dominators_generates_random_cfgs(capsys):
    rc, out, _ = run_cli(
        capsys, "dominators", "--random", "16,32", "--graphs-per-size", "3"
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rc == 0
    assert len(rows) == 6
    assert [r["vertices"] for r in rows] == ["16"] * 3 + ["32"] * 3
    # --random reads sizes as --sizes does, ranges too
    rc, out, _ = run_cli(capsys, "dominators", "--random", "16..17", "--graphs-per-size", "1")
    assert rc == 0
    assert [r["vertices"] for r in csv.DictReader(io.StringIO(out))] == ["16", "17"]


def test_a_dominators_report_names_its_inputs(tmp_path, capsys):
    graph_file = tmp_path / "line.cfg"
    graph_file.write_text("entry a\na b\n")
    rc, out, _ = run_cli(
        capsys, "dominators", "--graph", str(graph_file), "--random", "8",
        "--graphs-per-size", "1", "--format", "json",
    )
    assert rc == 0
    config = json.loads(out)["metadata"]["config"]
    assert config == {
        "graph": [str(graph_file)],
        "random": [8],
        "graphs_per_size": 1,
        "seed": 0,
    }


def test_a_dominators_report_names_the_default_sizes_it_ran(capsys):
    rc, out, _ = run_cli(capsys, "dominators", "--graphs-per-size", "1", "--format", "json")
    assert rc == 0
    document = json.loads(out)
    assert document["metadata"]["config"]["random"] == [128, 256, 512]
    assert [r["vertices"] for r in document["rows"]] == [128, 256, 512]


def test_a_bench_report_records_each_flag(capsys):
    rc, out, _ = run_cli(
        capsys,
        "bench",
        "--sizes", "2,3",
        "--seeds", "1",
        "--mix", "3:1",
        "--structures", "multimap,map_of_sets",
        "--operations", "lookup,delete",
        "--warmup", "0",
        "--measured", "1",
        "--format", "json",
        "--timestamp", TS,
    )
    assert rc == 0
    metadata = json.loads(out)["metadata"]
    assert metadata["generated_at"] == TS
    assert metadata["config"] == {
        "sizes": [2, 3],
        "seeds": 1,
        "mix": 0.75,
        "structures": ["multimap", "map_of_sets"],
        "operations": ["lookup", "delete"],
        "warmup": 0,
        "measured": 1,
    }


# -- exit codes ---------------------------------------------------------------------------


def test_out_of_range_sizes_exit_with_a_usage_error(capsys):
    rc, _, err = run_cli(capsys, "bench", "--sizes", "0..2")
    assert rc == 2
    assert "size exponents" in err


def test_malformed_flags_exit_with_a_usage_error(capsys):
    assert run_cli(capsys, "bench", "--mix", "banana")[0] == 2
    assert run_cli(capsys, "bench", "--sizes", "six")[0] == 2
    assert run_cli(capsys, "footprint", "--format", "yaml")[0] == 2
    assert run_cli(capsys, "selftest")[0] == 2  # no such subcommand


def test_impossible_structure_request_is_a_usage_error(capsys):
    # the plain map baseline cannot represent a dataset with 1:2 keys
    rc, _, err = run_cli(
        capsys,
        "bench",
        "--sizes", "2",
        "--seeds", "1",
        "--mix", "50:50",
        "--structures", "map",
    )
    assert rc == 2
    assert "1:1" in err


def test_missing_graph_file_is_named_in_the_error(capsys, tmp_path):
    missing = tmp_path / "nowhere.cfg"
    rc, _, err = run_cli(capsys, "dominators", "--graph", str(missing))
    assert rc == 2
    assert "nowhere.cfg" in err


def test_malformed_graph_file_is_named_with_its_line(capsys, tmp_path):
    bad = tmp_path / "broken.cfg"
    bad.write_text("a b\n")
    rc, _, err = run_cli(capsys, "dominators", "--graph", str(bad))
    assert rc == 2
    assert "broken.cfg:1" in err


@pytest.mark.parametrize("given", ["file", "directory"])
def test_a_graph_file_that_is_not_utf8_is_named_in_the_error(capsys, tmp_path, given):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    bad = graphs / "latin1.cfg"
    bad.write_bytes("entry \xe9\n\xe9 b\n".encode("latin-1"))
    rc, out, err = run_cli(capsys, "dominators", "--graph", str(bad if given == "file" else graphs))
    assert rc == 2
    assert out == ""
    assert "latin1.cfg" in err and "Traceback" not in err


def test_unwritable_output_is_an_io_error(capsys, tmp_path):
    rc, _, err = run_cli(
        capsys,
        "footprint",
        "--sizes", "4",
        "--output", str(tmp_path / "no" / "such" / "dir.csv"),
    )
    assert rc == 2
    assert err.startswith("leantrie:")


def test_a_reader_that_closes_stdout_early_is_not_an_error():
    # the report (~0.5 MB) outgrows the pipe's buffer, so the writer is
    # still writing when the reader closes its end after the first line
    src = os.path.dirname(os.path.dirname(os.path.abspath(leantrie.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["dominators", "--random", "16", "--graphs-per-size", "1500",
            "--format", "json", "--output", "-"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "leantrie.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


def test_gate_failures_exit_one_not_zero(capsys, monkeypatch):
    def explode(adapter, base, dataset):
        raise bench.GateError("rigged")

    monkeypatch.setattr(bench, "_correctness_gate", explode)
    rc, _, err = run_cli(capsys, "footprint", "--sizes", "4")
    assert rc == 1
    assert "rigged" in err
