import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import couponcollector
import couponcollector.cli as cli
import couponcollector.engine as engine
from conftest import record_spans, spy_forks, stub_forks
from couponcollector.cli import main

PAPER_MODEL = {"model": "without_replacement", "g": 2, "counts": [10, 100, 500, 1000]}


@pytest.fixture
def model_file(tmp_path):
    def write(obj, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def _read_csv(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


class TestExact:
    def test_paper_model(self, model_file, capsys):
        assert main(["exact", "--model", model_file(PAPER_MODEL)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("value = 81.466945512406")
        assert "terms_evaluated = 15" in out
        assert "cancellation_ratio = " in out

    def test_single_type(self, model_file, capsys):
        path = model_file({"model": "without_replacement", "g": 1, "counts": [1]})
        assert main(["exact", "--model", path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "value = 1"

    def test_uniform_via_m_field(self, model_file, capsys):
        path = model_file({"model": "uniform_distinct", "g": 2, "m": 4})
        assert main(["exact", "--model", path]) == 0
        assert capsys.readouterr().out.startswith("value = 3.8000000000000")

    def test_json_output_round_trips(self, model_file, capsys):
        assert main(["exact", "--model", model_file(PAPER_MODEL), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "value",
            "terms_evaluated",
            "cancellation_ratio",
            "truncated_at",
        }
        assert round(payload["value"], 1) == 81.5

    @pytest.mark.parametrize("fork", [False, True], ids=["stub forks", "forked"])
    def test_forked_lattice_walk_prints_the_one_span_bytes(
        self, model_file, monkeypatch, capsys, fork
    ):
        # m = 18 is four blocks of 2**16: three spans on three CPUs
        weights = [(7 * t) % 11 + 1 for t in range(18)]
        p = [w / sum(weights) for w in weights]
        path = model_file({"model": "draft_lottery", "g": 3, "p": p})
        argvs = [["exact", "--model", path], ["exact", "--model", path, "--json"]]

        def outputs():
            got = []
            for argv in argvs:
                assert main(argv) == 0
                got.append(capsys.readouterr().out)
            return got

        monkeypatch.setenv("COUPONCOLLECTOR_WORKERS", "1")
        want = outputs()
        made = (spy_forks if fork else stub_forks)(monkeypatch, 3)
        monkeypatch.setattr(engine, "_PROCESS_MIN_BLOCKS", 1)
        monkeypatch.delenv("COUPONCOLLECTOR_WORKERS")
        assert outputs() == want
        assert made == [2, 2]

    @pytest.mark.parametrize("cmd", ["exact", "simulate"])
    def test_malformed_workers_exit_2_even_on_the_count_path(
        self, model_file, monkeypatch, capsys, cmd
    ):
        # the paper's model sums by count class, as one span, yet both
        # commands read the variable before they run
        monkeypatch.setenv("COUPONCOLLECTOR_WORKERS", "abc")
        assert main([cmd, "--model", model_file(PAPER_MODEL)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "COUPONCOLLECTOR_WORKERS must be an integer (got 'abc')" in captured.err

    def test_out_file(self, model_file, tmp_path):
        target = tmp_path / "report.txt"
        assert (
            main(["exact", "--model", model_file(PAPER_MODEL), "--out", str(target)])
            == 0
        )
        assert target.read_text().startswith("value = ")


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["exact", "--model", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["exact", "--model", str(path)]) == 2

    def test_validation_error(self, model_file, capsys):
        path = model_file({"model": "without_replacement", "g": 0, "counts": [1, 2]})
        assert main(["exact", "--model", path]) == 2

    def test_capacity_error(self, model_file, capsys):
        path = model_file(
            {"model": "iid_within_group", "g": 2, "p": [1 / 12] * 12}
        )
        assert main(["exact", "--model", path, "--exact-cap", "11"]) == 3

    def test_count_law_above_53_types(self, model_file, capsys):
        path = model_file({"model": "uniform_distinct", "g": 2, "m": 54})
        assert main(["exact", "--model", path, "--exact-cap", "60"]) == 3
        assert "53-type limit" in capsys.readouterr().err

    def test_count_classes_above_the_budget(self, model_file, capsys):
        counts = [10**12 // 30 + i for i in range(30)]
        path = model_file({"model": "without_replacement", "g": 2, "counts": counts})
        assert main(["exact", "--model", path, "--exact-cap", "30"]) == 3
        assert "classes" in capsys.readouterr().err

    def test_divergence_error(self, model_file, capsys):
        path = model_file({"model": "iid_within_group", "g": 2, "p": [0.5, 0.5, 0.0]})
        assert main(["exact", "--model", path]) == 3

    @pytest.mark.parametrize(
        "obj",
        [
            {"model": "weighted_distinct", "g": -1, "q": [0.5, 0.5]},
            {"model": "uniform_distinct", "g": 2, "m": "x"},
            {"model": "iid_within_group", "g": 2, "p": "abc"},
            {"model": "iid_within_group", "g": 2, "p": [0.5, None, 0.5]},
            {"model": "iid_within_group", "g": 2, "p": [10**400]},
            {"model": "weighted_distinct", "g": 2, "q": 5},
            {
                "model": "without_replacement",
                "g": 2,
                "mandelbrot": {"m": 5, "c": 0.3, "theta": 1.75, "N": "x"},
            },
            {"model": "without_replacement", "g": 2, "counts": [1.5, 2]},
            {"model": "without_replacement", "g": 2.7, "counts": [1, 2]},
            {"model": "uniform_distinct", "g": True, "m": 3},
            {"model": "without_replacement", "g": 1, "counts": [True, 2]},
            {"model": "iid_within_group", "g": 2, "p": ["0.5", "0.5"]},
            {"model": "iid_within_group", "g": 2, "p": [True, False]},
            {"model": "weighted_distinct", "g": 1, "q": [0.5, None, 0.5]},
            {
                "model": "iid_within_group",
                "g": 2,
                "mandelbrot": {"m": 5, "c": "0.3", "theta": 1.75},
            },
            {
                "model": "iid_within_group",
                "g": 2,
                "mandelbrot": {"m": 5, "c": 0.3, "theta": "1.75"},
            },
            {
                "model": "draft_lottery",
                "g": 2,
                "mandelbrot": {"m": 5, "c": True, "theta": 1.75},
            },
            {
                "model": "draft_lottery",
                "g": 2,
                "mandelbrot": {"m": 5, "c": 0.3, "theta": True},
            },
            [{"model": "uniform_distinct", "g": 2, "m": 4}],  # not an object
            {"model": "uniform_distinct", "m": 4},  # no g
            {"model": "iid_within_group", "g": 2, "mandelbrot": [5, 0.3, 1.75]},
            {"model": "weighted_distinct", "g": 2},  # no q
            {"model": "iid_within_group", "g": 2},  # no p
            {"model": "iid_within_group", "g": 2, "p": []},
            {"model": "iid_within_group", "g": 0, "p": [0.5, 0.5]},
            {
                "model": "iid_within_group",
                "g": 2,
                "mandelbrot": {"m": 0, "c": 0.3, "theta": 1.75},
            },
            {"model": "uniform_distinct", "g": 1, "m": 0},
        ],
    )
    def test_bad_field_exits_2(self, model_file, capsys, obj):
        assert main(["exact", "--model", model_file(obj)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_weighted_g0_exits_2_without_hanging(self, model_file):
        # C(m, 0) = 1 for every m, so a search for the m whose C(m, g)
        # matches the weights would never end: run it in a child that a
        # timeout stops
        path = model_file({"model": "weighted_distinct", "g": 0, "q": [0.5, 0.5]})
        src = Path(couponcollector.__file__).resolve().parents[1]
        code = "import sys; from couponcollector.cli import main; sys.exit(main())"
        proc = subprocess.run(
            [sys.executable, "-c", code, "exact", "--model", path],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_argparse_error(self, capsys):
        assert main(["exact"]) == 2  # --model is required

    def test_bad_range(self, capsys):
        assert main(["figure", "g-sweep", "--g-range", "5"]) == 2
        assert main(["figure", "g-sweep", "--g-range", "9..2"]) == 2
        assert main(["figure", "m-sweep", "--m-range", "a..3"]) == 2
        assert main(["figure", "m-sweep", "--m-range", "0..3"]) == 2


class TestSimulate:
    def test_single_type_report(self, model_file, capsys):
        path = model_file({"model": "iid_within_group", "g": 2, "p": [1.0]})
        assert main(["simulate", "--model", path, "--trials", "50"]) == 0
        out = capsys.readouterr().out
        assert "mean = 1\n" in out
        assert "std_error = 0\n" in out

    def test_byte_identical_runs(self, model_file, capsys):
        path = model_file(PAPER_MODEL)
        argv = ["simulate", "--model", path, "--trials", "3000", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "trials = 3000" in first

    def test_worker_env_does_not_change_output(self, model_file, capsys, monkeypatch):
        path = model_file(PAPER_MODEL)
        argv = ["simulate", "--model", path, "--trials", "2000"]
        assert main(argv) == 0
        baseline = capsys.readouterr().out
        monkeypatch.setenv("COUPONCOLLECTOR_WORKERS", "5")
        assert main(argv) == 0
        assert capsys.readouterr().out == baseline

    @pytest.mark.parametrize("cpus", [2, 8, 40])
    @pytest.mark.parametrize("trials", [30, 20_000, 100_000])
    def test_default_workers_never_build_a_multi_thread_pool(
        self, model_file, monkeypatch, capsys, cpus, trials
    ):
        # spans fit the forked processes, and a call that forks none runs
        # one span, so no two spans ever share a process or contend for
        # its interpreter lock
        import couponcollector.oracle as oracle

        spans, made = record_spans(monkeypatch, cpus)
        monkeypatch.delenv("COUPONCOLLECTOR_WORKERS", raising=False)
        argv = ["simulate", "--model", model_file(PAPER_MODEL), "--trials", str(trials)]
        assert main(argv) == 0
        assert len(spans) == 1 or min(spans) >= oracle._PROCESS_MIN_TRIALS
        assert made == ([] if len(spans) == 1 else [len(spans) - 1])
        assert len(spans) <= cpus

    def test_more_than_64_types_exit_3(self, model_file, capsys):
        path = model_file({"model": "uniform_distinct", "g": 2, "m": 70})
        assert main(["simulate", "--model", path, "--trials", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: m=70 exceeds the 64 types")

    @pytest.mark.parametrize(
        "counts", [[2**62] * 3, [2**63, 1]], ids=["total-past", "count-past"]
    )
    def test_urn_past_int64_exit_3(self, model_file, capsys, counts):
        path = model_file({"model": "without_replacement", "g": 2, "counts": counts})
        assert main(["simulate", "--model", path, "--trials", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: an urn of {sum(counts)} individuals")

    def test_urn_just_below_int64_simulates(self, model_file, capsys):
        counts = [2**62, 2**62 - 1]
        path = model_file({"model": "without_replacement", "g": 2, "counts": counts})
        assert main(["simulate", "--model", path, "--trials", "500"]) == 0
        assert capsys.readouterr().out.startswith("mean = ")

    def test_json_fields(self, model_file, capsys):
        path = model_file({"model": "uniform_distinct", "g": 2, "m": 4})
        assert main(["simulate", "--model", path, "--trials", "500", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 500
        assert payload["ci_low"] <= payload["mean"] <= payload["ci_high"]

    def test_divergent_model(self, model_file, capsys, monkeypatch):
        import couponcollector.oracle as oracle

        monkeypatch.setattr(oracle, "DEFAULT_MAX_DRAWS", 200)
        path = model_file({"model": "iid_within_group", "g": 1, "p": [1.0, 0.0]})
        assert main(["simulate", "--model", path, "--trials", "5"]) == 3


def test_repeated_calls_in_one_process_match_fresh_processes(
    model_file, monkeypatch, capsys
):
    # main builds its parser once per process: each call must still parse,
    # print and exit as the same argv does in a fresh interpreter, whatever
    # the calls before it asked for
    path = model_file(PAPER_MODEL)
    sim = ["simulate", "--model", path, "--trials", "3000"]
    argvs = [
        ["exact", "--model", path, "--json"],
        ["exact", "--model", path],
        sim + ["--seed", "5"],
        sim,  # seed 0, not the 5 of the call before
        ["exact"],  # --model is required
        ["exact", "--model", path],
        ["--help"],
        ["--help"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # help wraps to one width in both
    monkeypatch.setenv("COUPONCOLLECTOR_WORKERS", "1")
    got = []
    for argv in argvs:
        status = main(argv)
        captured = capsys.readouterr()
        got.append((captured.out, captured.err, status))

    src = Path(couponcollector.__file__).resolve().parents[1]
    code = "import sys; from couponcollector.cli import main; sys.exit(main())"
    fresh = {}
    for argv in map(tuple, argvs):
        if argv not in fresh:
            proc = subprocess.run(
                [sys.executable, "-c", code, *argv],
                capture_output=True,
                text=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
            fresh[argv] = (proc.stdout, proc.stderr, proc.returncode)
    assert got == [fresh[tuple(argv)] for argv in argvs]
    assert got[3][0].endswith("seed = 0\n")
    assert got[4][0] == "" and got[4][1].startswith("usage:") and got[4][2] == 2
    assert got[6] == got[7] and got[6][0].startswith("usage: couponcollector")
    assert cli._build_parser() is cli._build_parser()


# run in a fresh interpreter: the modules that ``exact``, ``chain`` and
# ``figure g-sweep`` load past ``import numpy`` (numpy 1.x loads numpy.random
# with numpy itself), then a simulation
_FOOTPRINT = """
import json, sys
import numpy
before = set(sys.modules)
from couponcollector import UniformDistinct, chain_expectation, cli
codes = [
    cli.main(["exact", "--model", sys.argv[1]]),
    cli.main(["figure", "g-sweep", "--g-range", "1..3"]),
]
chain_expectation(UniformDistinct(4, 2))
loaded = sorted(set(sys.modules) - before)
codes.append(cli.main(["simulate", "--model", sys.argv[1], "--trials", "300"]))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_exact_loads_no_simulator_module(model_file):
    path = model_file(PAPER_MODEL)
    src = Path(couponcollector.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "COUPONCOLLECTOR_WORKERS"}
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, path],
        capture_output=True,
        text=True,
        timeout=120,
        env={**env, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    simulator = [
        name
        for name in report["loaded"]
        if name.startswith(("numpy.random", "concurrent"))
    ]
    assert simulator == []
    assert "couponcollector.oracle" in report["loaded"]


class TestFigureGSweep:
    def test_default_sweep(self, capsys):
        assert main(["figure", "g-sweep"]) == 0
        header, rows = _read_csv(capsys.readouterr().out)
        assert header == [
            "g",
            "exact_groups",
            "exact_individuals",
            "single_arrival_individuals",
            "cancellation_ratio",
        ]
        assert [int(r[0]) for r in rows] == list(range(1, 16))
        individuals = [float(r[2]) for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(individuals, individuals[1:]))
        # single-arrival baseline: the g=1 row is the baseline itself
        assert float(rows[0][1]) == pytest.approx(float(rows[0][3]), rel=1e-9)
        assert round(float(rows[1][1]), 1) == 81.5

    def test_runs_write_identical_bytes(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["figure", "g-sweep", "--out", str(first)]) == 0
        assert main(["figure", "g-sweep", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        comments = [
            line for line in first.read_text().splitlines() if line.startswith("#")
        ]
        assert comments == [
            "# model: without_replacement(counts=(10, 100, 500, 1000)), g=1..15",
            "# seed: 0",
        ]

    def test_round_trip_at_17_digits(self, capsys):
        assert main(["figure", "g-sweep", "--g-range", "1..4"]) == 0
        _, rows = _read_csv(capsys.readouterr().out)
        for row in rows:
            for cell in row[1:]:
                assert f"{float(cell):.17g}" == cell

    def test_custom_model(self, model_file, capsys):
        path = model_file({"model": "without_replacement", "g": 2, "counts": [2, 2]})
        assert main(["figure", "g-sweep", "--model", path, "--g-range", "1..4"]) == 0
        _, rows = _read_csv(capsys.readouterr().out)
        assert len(rows) == 4
        assert float(rows[1][1]) == pytest.approx(1.4, abs=1e-12)

    def test_rejects_non_population_model(self, model_file, capsys):
        path = model_file({"model": "uniform_distinct", "g": 2, "m": 4})
        assert main(["figure", "g-sweep", "--model", path]) == 2

    def test_range_beyond_population(self, model_file, capsys):
        path = model_file({"model": "without_replacement", "g": 1, "counts": [1, 1]})
        assert main(["figure", "g-sweep", "--model", path, "--g-range", "1..5"]) == 2


class TestFigureMSweep:
    def test_small_sweep_consistency(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "figure",
                "m-sweep",
                "--m-range",
                "5..7",
                "--trials",
                "3000",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        header, rows = _read_csv(out.read_text())
        assert header == [
            "m",
            "exact_groups",
            "sim_mean",
            "sim_ci_low",
            "sim_ci_high",
            "trials",
            "seed",
        ]
        assert [int(r[0]) for r in rows] == [5, 6, 7]
        for row in rows:
            exact, mean = float(row[1]), float(row[2])
            half = (float(row[4]) - float(row[3])) / 2
            se = half / 1.959963984540054
            assert abs(mean - exact) <= 3.29 * se
            assert int(row[5]) == 3000
            assert int(row[6]) == 11

    def test_exact_column_empty_above_cap(self, capsys):
        rc = main(
            [
                "figure",
                "m-sweep",
                "--m-range",
                "5..7",
                "--trials",
                "200",
                "--exact-cap",
                "5",
            ]
        )
        assert rc == 0
        _, rows = _read_csv(capsys.readouterr().out)
        assert rows[0][1] != ""
        assert rows[1][1] == ""
        assert rows[2][1] == ""
        assert all(r[2] for r in rows)  # simulated column still present

    def test_exact_column_empty_where_the_engine_refuses_a_row(self, capsys):
        # below the cap, but the 24 counts of N = 10**12 before the last
        # make up to 2**24 classes, past the class path's 2**23: the row
        # still simulates, and the sweep still prints its CSV
        argv = ["figure", "m-sweep", "--m-range", "25..25", "--trials", "200"]
        argv += ["--population-size", "1000000000000", "--exact-cap", "30"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        _, rows = _read_csv(captured.out)
        assert [(r[0], r[1]) for r in rows] == [("25", "")]
        assert float(rows[0][2]) > 0 and rows[0][5] == "200"
        assert captured.err == ""
