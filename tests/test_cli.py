"""Command-line driver: formats, determinism, parallelism, round trips, exit codes."""

import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from spinfid import (
    DomainError,
    ExtIsingPath,
    NumericsError,
    PathC,
    PathD,
    gamma_crossing,
    residual,
    shift_crossing,
    size_crossing,
    sweep_lnF,
)
from spinfid import cli
from spinfid.crossover import even_size

from conftest import every_panel_reports_error_one


def run_cli(argv, tmp_path, name="out"):
    out = tmp_path / f"{name}.txt"
    code = cli.main(argv + ["--output", str(out)])
    return code, out.read_text() if out.exists() else ""


def data_section(text):
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))


class TestBasics:
    def test_fidelity_single_row(self, tmp_path):
        code, text = run_cli(["fidelity", "--path", "A", "--gamma", "1", "--delta", "1e-3",
                              "--c", "1", "--N", "1000"], tmp_path)
        assert code == 0
        lines = data_section(text).strip().splitlines()
        assert lines[0].startswith("N,lnF,F,")
        fields = lines[1].split(",")
        assert fields[0] == "1000"
        assert 0.0 < float(fields[2]) < 1.0

    def test_scaling_c0_row_reads_quarter(self, tmp_path):
        code, text = run_cli(["scaling", "--function", "A", "--c-range", "-3:3:601"], tmp_path)
        assert code == 0
        rows = dict()
        for ln in data_section(text).strip().splitlines()[1:]:
            c, v = ln.split(",")
            rows[c] = v
        assert rows["0"] == "0.25"

    def test_csv_floats_roundtrip_17_digits(self, tmp_path):
        code, text = run_cli(["scaling", "--function", "B", "--c-range", "0:2:5"], tmp_path)
        assert code == 0
        from spinfid import scaling_B
        for ln in data_section(text).strip().splitlines()[1:]:
            c, v = ln.split(",")
            assert float(v) == scaling_B(float(c))

    def test_sweep_emits_prediction(self, tmp_path):
        code, text = run_cli(["sweep", "--path", "B", "--g", "0.99", "--delta", "0.002",
                              "--c", "0.5", "--N-range", "2000:2006:2", "--format", "json"],
                             tmp_path)
        assert code == 0
        doc = json.loads(text)
        assert set(doc) == {"config", "manifest", "rows"}
        assert len(doc["rows"]) == 4
        assert {"N", "lnF", "F", "pred_lnF_per_site"} <= set(doc["rows"][0])

    def test_crossover_slope_curve(self, tmp_path):
        code, text = run_cli(["crossover", "--scan", "delta", "--alpha", "1", "--c", "1",
                              "--N", "2000", "--range", "1e-9:1e-4", "--per-decade", "8"],
                             tmp_path)
        assert code == 0
        manifest = json.loads(text.splitlines()[0].split("# manifest: ")[1])
        assert manifest["result"]["crossing"] == pytest.approx(0.465 / 2000 ** 2, rel=0.3)

    def test_crossover_fit_mode(self, tmp_path):
        code, text = run_cli(["crossover", "--scan", "delta", "--alpha", "1", "--c", "1",
                              "--sweep-list", "1000,2000,4000", "--range", "1e-9:1e-4",
                              "--per-decade", "8"], tmp_path)
        assert code == 0
        manifest = json.loads(text.splitlines()[0].split("# manifest: ")[1])
        assert manifest["result"]["fit"]["slope"] == pytest.approx(-2.0, abs=0.1)

    def test_quench_rows(self, tmp_path):
        code, text = run_cli(["quench", "--gamma", "1", "--delta", "1e-3", "--N", "2000",
                              "--c-range", "0:1:3"], tmp_path)
        assert code == 0
        header = data_section(text).strip().splitlines()[0]
        assert header == "c,n_ex,n_ex_integral,nex_over_delta,B_c,survival"

    def test_verify_rows(self, tmp_path):
        code, text = run_cli(["verify", "--which", "pathA", "--gamma", "1", "--delta", "1e-3",
                              "--c-range", "0:1:2"], tmp_path)
        assert code == 0
        rows = data_section(text).strip().splitlines()
        assert rows[0] == "gamma,delta,c,E,normalized,order"
        assert abs(float(rows[1].split(",")[4])) < 0.25
        assert rows[1].split(",")[5] == "delta^2/gamma^3"

    @pytest.mark.parametrize("which, flags, path", [
        ("pathC", [], lambda c: PathC(1e-3, c)),
        ("pathD", ["--alpha", "2"], lambda c: PathD(2.0, 1e-3, c)),
        ("pathext", [], lambda c: ExtIsingPath(1e-3, c)),
    ])
    def test_verify_rows_on_the_other_paths(self, which, flags, path, tmp_path):
        code, text = run_cli(["verify", "--which", which, *flags, "--delta", "1e-3",
                              "--c-range", "1:2:3"], tmp_path)
        assert code == 0
        header, *rows = data_section(text).strip().splitlines()
        assert header == ",".join([*(f[2:] for f in flags[::2]), "delta", "c", "E", "normalized",
                                   "order"])
        for row, c in zip(rows, (1.0, 1.5, 2.0), strict=True):
            s = residual(path(c))
            assert row.split(",")[-3:] == [cli._fmt(s.E), cli._fmt(s.normalized), s.order]

    def test_verify_rows_name_their_order(self, tmp_path):
        # PathC's divisor switches from delta^2 to delta^4 where |eps| = c|delta| passes 0.1
        code, text = run_cli(["verify", "--which", "pathC", "--delta", "1e-2",
                              "--c-range", "0:20:5"], tmp_path)
        assert code == 0
        rows = [r.split(",") for r in data_section(text).strip().splitlines()[1:]]
        assert [r[-1] for r in rows] == ["delta^2"] * 3 + ["delta^4"] * 2

    def test_verify_which_names_every_path(self, capsys):
        assert cli.main(["verify", "--which", "pathE", "--delta", "1e-3",
                         "--c-range", "1:2:3"]) == 2
        err = capsys.readouterr().err
        assert all(f"path{name}" in err for name in ("A", "B", "C", "D", "ext")), err

    def test_verify_path_d_needs_alpha(self, capsys):
        assert cli.main(["verify", "--which", "pathD", "--delta", "1e-3",
                         "--c-range", "1:2:3"]) == 2
        assert capsys.readouterr().err == "spinfid: invalid configuration: verify pathD needs --alpha\n"


def log_range(lo, hi, n):
    """The grid the CLI builds from --range lo:hi:n."""
    return np.logspace(math.log10(lo), math.log10(hi), n)


GAMMA_GRID = log_range(1e-5, 1.0, 21)
SIZE_GRID = log_range(2.0, 2e4, 40)  # small sizes round onto the same even values
SHIFT_GRID = log_range(1e-9, 1e-4, 30)
# scan -> (its flags, --sweep-list, library crossing at one listed value,
#          flag and library keywords of a single sweep at the first listed value)
SCANS = {
    "gamma": (["--scan", "gamma", "--delta", "3e-7", "--c", "-1", "--range", "1e-5:1:21"],
              "2000,999,4000", lambda v: gamma_crossing(even_size(v), 3e-7, -1.0, GAMMA_GRID),
              ["--N", "2000"], dict(grid=GAMMA_GRID, c=-1.0, N=2000, delta=3e-7)),
    "N": (["--scan", "N", "--alpha", "1", "--c", "1", "--range", "2:2e4:40"],
          "1e-6,3e-6,1e-5", lambda v: size_crossing(v, 1.0, SIZE_GRID, alpha=1.0),
          ["--delta", "1e-6"], dict(grid=SIZE_GRID, c=1.0, delta=1e-6, alpha=1.0)),
    "delta": (["--scan", "delta", "--alpha", "1", "--c", "1", "--range", "1e-9:1e-4:30"],
              "2000,1000,4000", lambda v: shift_crossing(even_size(v), 1.0, SHIFT_GRID, alpha=1.0),
              ["--N", "2000"], dict(grid=SHIFT_GRID, c=1.0, N=2000, alpha=1.0)),
}

# the flags each crossover mode needs besides --c: the fields of the scan's path and --N,
# less the scanned quantity and, with --sweep-list, the listed one (written out by hand)
CROSSOVER_NEEDS = {("gamma", False): {"N", "delta"}, ("N", False): {"delta", "alpha"},
                   ("delta", False): {"N", "alpha"}, ("gamma", True): {"delta"},
                   ("N", True): {"alpha"}, ("delta", True): {"alpha"}}
# scan -> tiny --range and --sweep-list, at N <= 400
TINY_CROSSOVER = {"gamma": ("1e-3:1:5", "100,200"), "N": ("2:400:5", "1e-4,1e-3"),
                  "delta": ("1e-6:1e-3:5", "100,200")}
FIXED = {"N": "200", "delta": "1e-3", "alpha": "1"}


class TestCrossoverMatchesLibrary:
    @pytest.mark.parametrize("scan", sorted(SCANS))
    def test_sweep_list_rows_equal_library_crossings(self, scan, tmp_path):
        flags, sweep_list, library, _, _ = SCANS[scan]
        code, text = run_cli(["crossover", *flags, "--sweep-list", sweep_list,
                              "--format", "json"], tmp_path)
        assert code == 0
        rows = json.loads(text)["rows"]
        values = [float(v) for v in sweep_list.split(",")]
        assert len(rows) == len(values)
        for v, row in zip(values, rows):
            want = library(v)
            assert row["sweep_value"] == (v if scan == "N" else even_size(v))
            assert (row["crossing"], row["multiple"]) == (want.x, want.multiple)

    @pytest.mark.parametrize("scan", sorted(SCANS))
    def test_single_sweep_equals_library(self, scan, tmp_path):
        flags, sweep_list, library, single, kwargs = SCANS[scan]
        code, text = run_cli(["crossover", *flags, *single, "--format", "json"], tmp_path)
        assert code == 0
        doc = json.loads(text)
        want = library(float(sweep_list.split(",")[0]))
        result = doc["manifest"]["result"]
        assert (result["crossing"], result["crossing_multiple"]) == (want.x, want.multiple)
        sw = sweep_lnF(scan, **kwargs)
        assert doc["rows"] == [{scan: v, "minus_lnF": y, "slope": s} for v, y, s in
                               zip(sw.values.tolist(), sw.minus_lnF.tolist(), sw.slopes.tolist())]

    def test_size_sweep_list_with_repeated_rounded_sizes(self, tmp_path):
        # --range 2:2e4:40 rounds several small sizes onto the same even N
        flags = SCANS["N"][0]
        assert len({even_size(n) for n in SIZE_GRID}) < SIZE_GRID.size
        code, text = run_cli(["crossover", *flags, "--sweep-list", "1e-6,3e-6,1e-5"],
                             tmp_path, "list")
        assert code == 0
        first = data_section(text).strip().splitlines()[1].split(",")
        code, text = run_cli(["crossover", *flags, "--delta", "1e-6"], tmp_path, "single")
        assert code == 0
        manifest = json.loads(text.splitlines()[0].split("# manifest: ")[1])
        assert float(first[1]) == manifest["result"]["crossing"]

    def test_sweep_list_value_without_crossing_is_a_null_row(self, tmp_path):
        flags = ["--scan", "gamma", "--delta", "1e-6", "--c", "-1", "--range", "1e-3:1:20"]
        code, text = run_cli(["crossover", *flags, "--sweep-list", "1000,1999,3000",
                              "--format", "json"], tmp_path)
        assert code == 0
        doc = json.loads(text)
        grid = log_range(1e-3, 1.0, 20)
        nulls = 0
        for v, row in zip((1000, 1999, 3000), doc["rows"]):
            assert row["sweep_value"] == even_size(v)
            try:
                want = gamma_crossing(even_size(v), 1e-6, -1.0, grid)
            except DomainError:
                assert (row["crossing"], row["multiple"]) == (None, None)
                nulls += 1
            else:
                assert (row["crossing"], row["multiple"]) == (want.x, want.multiple)
        assert 0 < nulls < 3
        assert "fit" not in doc["manifest"]["result"]  # fewer than 3 crossings

    @pytest.mark.parametrize("argv", [
        ["--scan", "N", "--c", "1", "--delta", "1e-6", "--range", "2:2e4:40"],  # no --alpha
        ["--scan", "delta", "--c", "1", "--N", "2000", "--range", "1e-9:1e-4:8"],  # no --alpha
        ["--scan", "N", "--alpha", "1", "--c", "0.5", "--delta", "1e-6", "--range", "2:2e4:40"],
        ["--scan", "delta", "--alpha", "1", "--c", "0.5", "--N", "2000",
         "--range", "1e-9:1e-4:8"],
        ["--scan", "delta", "--alpha", "1", "--c", "0.5", "--sweep-list", "1000,2000",
         "--range", "1e-9:1e-4:8"],
        ["--scan", "delta", "--alpha", "1", "--c", "1", "--N", "2000"],  # no --range
        ["--scan", "delta", "--alpha", "1", "--N", "2000", "--range", "1e-9:1e-4:8"],  # no --c
        ["--alpha", "1", "--c", "1", "--N", "2000", "--range", "1e-9:1e-4:8"],  # no --scan
        ["--scan", "delta", "--alpha", "1", "--c", "1", "--range", "1e-9:1e-4:8"],  # no --N
        ["--scan", "delta", "--alpha", "1", "--c", "1", "--N", "2001", "--range", "1e-9:1e-4:8"],
        ["--scan", "gamma", "--c", "-1", "--N", "2000", "--range", "1e-5:1:21"],  # no --delta
        ["--scan", "gamma", "--c", "-1", "--sweep-list", "1000,2000", "--range", "1e-5:1:21"],
        ["--scan", "gamma", "--c", "-1", "--delta", "3e-7", "--range", "1e-5:1:21"],  # no --N
        ["--scan", "N", "--alpha", "1", "--c", "1", "--range", "2:2e4:40"],  # no --delta
        ["--scan", "delta", "--alpha", "1", "--c", "1", "--sweep-list", "a,b",
         "--range", "1e-9:1e-4:8"],
        ["--scan", "delta", "--alpha", "1", "--c", "1", "--N", "2000", "--range", "1e-4:1e-9"],
        ["--scan", "delta", "--alpha", "1", "--c", "1", "--N", "2000",
         "--range", "1e-9:1e-4:8", "--N-fixed", "2000"],  # removed flag
        ["--scan", "N", "--alpha", "1", "--c", "1", "--delta", "1e-6",
         "--range", "2:2e4:40", "--delta-fixed", "1e-6"],  # removed flag
        ["--scan", "gamma", "--c", "-1", "--N", "2000", "--delta", "3e-7",
         "--range", "1e-5:1:21", "--gamma", "0.5"],  # removed flag
        ["--scan", "delta", "--alpha", "1", "--c", "1", "--N", "2000", "--range", "1e-9:1e-4:2"],
        ["--scan", "delta", "--alpha", "1", "--c", "1", "--N", "2000", "--range", "1e-9:1e-4",
         "--per-decade", "0"],
        ["--scan", "delta", "--alpha", "1", "--c", "1", "--N", "2000", "--range", "1e-9:1e-4",
         "--per-decade", "-5"],
        # flags the scan never reads: the scanned quantity, and the listed one
        ["--scan", "delta", "--alpha", "1", "--c", "1", "--N", "2000", "--delta", "0.3",
         "--range", "1e-9:1e-4:8"],
        ["--scan", "gamma", "--c", "-1", "--N", "2000", "--delta", "3e-7", "--alpha", "1",
         "--range", "1e-5:1:21"],
        ["--scan", "N", "--alpha", "1", "--c", "1", "--delta", "1e-6", "--N", "2000",
         "--range", "2:2e4:40"],
        ["--scan", "gamma", "--c", "-1", "--delta", "3e-7", "--N", "2000",
         "--sweep-list", "1000,2000", "--range", "1e-5:1:21"],
        ["--scan", "delta", "--alpha", "1", "--c", "1", "--N", "2000",
         "--sweep-list", "1000,2000", "--range", "1e-9:1e-4:8"],
        ["--scan", "N", "--alpha", "1", "--c", "1", "--delta", "1e-6",
         "--sweep-list", "1e-6,3e-6,1e-5", "--range", "2:2e4:40"],
        ["--scan", "delta", "--alpha", "1", "--c", "1", "--N", "2000", "--range", "1e-9:1e-4:8",
         "--per-decade", "5"],  # a count in --range leaves --per-decade unread
    ])
    def test_invalid_crossover_configs_exit_2(self, argv):
        assert cli.main(["crossover", *argv]) == 2

    @pytest.mark.parametrize("given", [s for k in range(4)
                                       for s in itertools.combinations(FIXED, k)],
                             ids=lambda s: "+".join(s) or "none")
    @pytest.mark.parametrize("listed", [False, True], ids=["single", "sweep-list"])
    @pytest.mark.parametrize("scan", sorted(TINY_CROSSOVER))
    def test_flag_rule_accepts_only_the_needed_flags(self, scan, listed, given, tmp_path):
        grid, sweep_list = TINY_CROSSOVER[scan]
        argv = ["crossover", "--scan", scan, "--c", "1", "--range", grid]
        argv += ["--sweep-list", sweep_list] if listed else []
        for name in given:
            argv += [f"--{name}", FIXED[name]]
        code, _ = run_cli(argv, tmp_path)
        assert code == (0 if set(given) == CROSSOVER_NEEDS[scan, listed] else 2)

    @pytest.mark.parametrize("delta", ["1e-3", "0"])
    @pytest.mark.parametrize("at", [["--c", "0.5"], ["--c-range", "0:1:2"],
                                    ["--c", "0.5", "--c-range", "0:1:2"], []],
                             ids=["c", "c-range", "both", "neither"])
    def test_quench_needs_exactly_one_of_c_and_c_range(self, at, delta, tmp_path):
        # and a path: PathA's checks run before a row divides by |delta|
        code, _ = run_cli(["quench", "--gamma", "1", "--delta", delta, "--N", "100", *at],
                          tmp_path)
        assert code == (0 if len(at) == 2 and delta != "0" else 2)


class TestDeterminism:
    def test_identical_configs_identical_data(self, tmp_path):
        argv = ["sweep", "--path", "A", "--gamma", "1", "--delta", "1e-3", "--c", "0.5",
                "--N-range", "1000:1200:50"]
        _, a = run_cli(argv, tmp_path, "a")
        _, b = run_cli(argv, tmp_path, "b")
        assert data_section(a) == data_section(b)
        ma = json.loads(a.splitlines()[0].split("# manifest: ")[1])
        mb = json.loads(b.splitlines()[0].split("# manifest: ")[1])
        for volatile in ("created_utc", "wall_time_s"):
            ma.pop(volatile), mb.pop(volatile)
        assert ma == mb

    def test_parallelism_transparency(self, tmp_path):
        base = ["quench", "--gamma", "1", "--delta", "1e-3", "--N", "2000",
                "--c-range", "-1:1:9"]
        _, a = run_cli(base + ["--parallelism", "1"], tmp_path, "p1")
        _, b = run_cli(base + ["--parallelism", "8"], tmp_path, "p8")
        assert data_section(a) == data_section(b)

    def test_json_config_round_trip(self, tmp_path):
        argv = ["verify", "--which", "pathB", "--g", "0.5", "--delta", "1e-3",
                "--c-range", "0:2:5", "--format", "json"]
        _, first = run_cli(argv, tmp_path, "first")
        doc = json.loads(first)
        cfg_file = tmp_path / "replay.json"
        cfg_file.write_text(json.dumps(doc["config"]))
        code = cli.main(["verify", "--config", str(cfg_file),
                         "--output", str(tmp_path / "second.txt")])
        assert code == 0
        second = json.loads((tmp_path / "second.txt").read_text())
        assert second["rows"] == doc["rows"]
        assert second["config"] == doc["config"]


# one invocation per subcommand, replayed from its JSON config
REPLAYS = [
    ["fidelity", "--path", "D", "--alpha", "2", "--delta", "1e-4", "--c", "1.5", "--N", "5000"],
    ["sweep", "--path", "B", "--g", "0.99", "--delta", "0.002", "--c", "0",  # a 0 stays a value
     "--N-range", "2000:2006:2"],
    ["scaling", "--function", "A", "--c-range", "-3:3:7"],
    ["crossover", *SCANS["N"][0], "--sweep-list", "1e-6,3e-6,1e-5"],
    ["quench", "--gamma", "1", "--delta", "1e-3", "--N", "2000", "--c-range", "0:1:3",
     "--no-integral"],
    ["verify", "--which", "pathA", "--gamma", "1", "--delta", "1e-3", "--c-range", "0:1:2"],
]

QUENCH = ["quench", "--gamma", "1", "--N", "100", "--c", "0.5"]
SCALING = ["scaling", "--function", "A", "--c-range", "0:1:3"]
CROSSOVER = ["crossover", "--scan", "delta", "--alpha", "1", "--c", "1", "--N", "2000",
             "--range", "1e-9:1e-4:8"]


class TestConfigFile:
    @pytest.mark.parametrize("argv", REPLAYS, ids=lambda argv: argv[0])
    def test_replay_gives_same_rows_and_config(self, argv, tmp_path):
        _, first = run_cli(argv + ["--format", "json"], tmp_path, "first")
        doc = json.loads(first)
        cfg_file = tmp_path / "replay.json"
        cfg_file.write_text(json.dumps(doc["config"]))
        code, second = run_cli([argv[0], "--config", str(cfg_file)], tmp_path, "second")
        assert code == 0
        replay = json.loads(second)
        assert json.dumps(replay["rows"]) == json.dumps(doc["rows"])  # NaN-safe comparison
        assert replay["config"] == doc["config"]
        assert replay["manifest"].get("result") == doc["manifest"].get("result")

    @pytest.mark.parametrize("argv, config", [
        (QUENCH, {"delta": "abc"}),
        (["verify", "--which", "pathA", "--gamma", "1", "--c-range", "0:1:2"], {"delta": "abc"}),
        (["crossover", "--scan", "gamma", "--c", "-1", "--N", "2000", "--range", "1e-5:1:21"],
         {"delta": "abc"}),
        (QUENCH + ["--delta", "1e-3"], {"delta": "abc"}),  # checked even when a flag overrides it
        (SCALING, {"parallelism": "two"}),
        (SCALING[:3], {"c_range": 5}),
        (["fidelity", "--path", "A", "--gamma", "1", "--delta", "1e-3", "--c", "1"], {"N": 8.5}),
        (SCALING, {"format": "xml"}),
        (CROSSOVER, {"bogus": 1}),
        (CROSSOVER, {"N_fixed": 7}),
        (QUENCH + ["--delta", "1e-3"], {"no_integral": "yes"}),
        (SCALING, {"command": "verify"}),
        (SCALING[:3], {"c_range": "1:inf:3"}),
        (CROSSOVER, {"target": math.nan}),
    ])
    def test_bad_config_file_exits_2(self, argv, config, tmp_path):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps(config))
        assert cli.main([*argv, "--config", str(cfg_file)]) == 2

    def test_explicit_flag_beats_config_value(self, tmp_path):
        argv = ["verify", "--which", "pathA", "--gamma", "1", "--delta", "1e-3",
                "--c-range", "0:1:2"]
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({"which": "pathA", "gamma": 1, "delta": 0.5,
                                        "c_range": "0:1:2"}))
        code, replayed = run_cli(["verify", "--config", str(cfg_file), "--delta", "1e-3"],
                                 tmp_path, "replayed")
        assert code == 0
        _, flags_only = run_cli(argv, tmp_path, "flags")
        assert replayed.splitlines()[1:] == flags_only.splitlines()[1:]  # config and data

    def test_abbreviated_config_flag_exits_2(self, tmp_path):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({"function": "A", "c_range": "0:1:3"}))
        assert cli.main(["scaling", "--conf", str(cfg_file)]) == 2
        assert cli.main([*SCALING, "--conf", str(cfg_file)]) == 2


PATH_A = ["--path", "A", "--gamma", "1", "--delta", "1e-3", "--c", "1"]
DELTA_SCAN = ["crossover", "--scan", "delta", "--alpha", "1", "--c", "1"]


class TestNumbers:
    """Every number the CLI reads is checked where it is read: anything else exits 2."""

    @pytest.mark.parametrize("argv", [
        # non-finite values that once gave NaN rows, a traceback or a NaN manifest entry
        ["scaling", "--function", "A_mcp", "--c-range", "1:inf:3"],
        ["crossover", "--scan", "gamma", "--N", "100", "--delta", "1e-3", "--c", "1",
         "--range", "1e-3:inf"],
        ["crossover", "--scan", "gamma", "--delta", "1e-3", "--c", "1", "--range", "1e-3:1",
         "--sweep-list", "100,inf"],
        [*DELTA_SCAN, "--range", "1e-9:1e-3", "--sweep-list", "100,nan"],
        [*DELTA_SCAN, "--N", "2000", "--range", "1e-9:1e-4", "--target", "nan"],
        # empty grids, once read as absent
        [*DELTA_SCAN, "--N", "2000", "--range", "1e-9:1e-4:8", "--sweep-list", ""],
        [*DELTA_SCAN, "--range", "1e-9:1e-4:8", "--sweep-list", ""],
        ["quench", "--gamma", "1", "--delta", "1e-3", "--N", "100", "--c", "0.5", "--c-range", ""],
        # the rest of the rule
        ["scaling", "--function", "A", "--c-range", "0:1:1"],
        ["scaling", "--function", "A", "--c-range", "0:x:3"],
        ["scaling", "--function", "A", "--c-range", "0:1:3.0"],
        ["scaling", "--function", "A", "--c-range", "-inf:1:3"],
        [*DELTA_SCAN, "--N", "2000", "--range", "1e-9:1e-4:2"],
        [*DELTA_SCAN, "--N", "2000", "--range", "1e-4:1e-9"],
        [*DELTA_SCAN, "--N", "2000", "--range", "1e-9:1e-4", "--per-decade", "0"],
        [*DELTA_SCAN, "--N", "2000", "--range", "1e-9:x"],
        [*DELTA_SCAN, "--range", "1e-9:1e-4", "--sweep-list", ","],
        ["sweep", *PATH_A, "--N-range", "200:100:2"],
        ["sweep", *PATH_A, "--N-range", "100:1e3:2"],
        ["sweep", *PATH_A, "--N-range", "100:200:0"],
        ["sweep", *PATH_A, "--N-range", f"2:{10 ** 400}:2"],
        ["fidelity", "--path", "A", "--gamma", "inf", "--delta", "1e-3", "--c", "1", "--N", "100"],
        ["fidelity", "--path", "A", "--gamma", "1", "--delta", "nan", "--c", "1", "--N", "100"],
        ["fidelity", *PATH_A, "--N", "7"],
        ["fidelity", *PATH_A, "--N", "0"],
        ["fidelity", *PATH_A, "--N", "100000000000000000000"],
        ["scaling", "--function", "A", "--c-range", "0:1:3", "--parallelism", "-1"],
        # grids past cli.MAX_GRID_POINTS, which once died of a MemoryError while being built
        ["sweep", *PATH_A, "--N-range", "2:2000000000:2"],
        ["scaling", "--function", "A", "--c-range", "0:1:2000000000"],
        ["crossover", "--scan", "gamma", "--N", "100", "--delta", "1e-3", "--c", "1",
         "--range", "1e-3:1:2000000000"],
        ["crossover", "--scan", "gamma", "--N", "100", "--delta", "1e-3", "--c", "1",
         "--range", "1e-3:1", "--per-decade", "2000000000"],
        ["sweep", *PATH_A, "--N-range", f"2:{10 ** 300}:2"],  # past len(range(...))
        # finite extremes: past models.MAX_FIELD, once an OverflowError or NaN kernels
        ["fidelity", "--path", "A", "--gamma", "1", "--delta", "1e200", "--c", "0.5", "--N", "100"],
        ["fidelity", "--path", "A", "--gamma", "1", "--delta", "1e-3", "--c", "1e306", "--N", "100"],
        ["verify", "--which", "pathext", "--delta", "1e200", "--c-range", "0:1:2"],
        ["quench", "--gamma", "1", "--delta", "1e200", "--c", "0.5", "--N", "100"],
        ["scaling", "--function", "A", "--c-range", "1e60:1e200:2"],
        # gamma whose cube underflows (once a ZeroDivisionError, or normalized = 0), and a
        # residual order that underflows (once a ZeroDivisionError)
        ["fidelity", "--path", "A", "--gamma", "1e-200", "--delta", "1e-3", "--c", "0.5",
         "--N", "100"],
        ["verify", "--which", "pathA", "--gamma", "1e-120", "--delta", "1e-3", "--c-range", "0:1:2"],
        ["verify", "--which", "pathB", "--g", "0.5", "--delta", "1e-200", "--c-range", "0:1:2"],
    ])
    def test_rejected_input_exits_2_without_traceback(self, argv, capsys):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("usage:") or err.startswith("spinfid: invalid configuration")

    def test_grid_bound_admits_its_own_size(self, tmp_path):
        argv = ["scaling", "--function", "A_mps", "--c-range", f"0:2:{cli.MAX_GRID_POINTS}"]
        code, text = run_cli(argv, tmp_path)
        assert code == 0
        assert len(data_section(text).splitlines()) == cli.MAX_GRID_POINTS + 1  # and a header
        argv[-1] = f"0:2:{cli.MAX_GRID_POINTS + 1}"
        assert cli.main(argv) == 2


class TestExitCodes:
    def test_invalid_config_is_2(self, tmp_path):
        assert cli.main(["fidelity", "--path", "A", "--gamma", "1",
                         "--delta", "1e-3", "--c", "1"]) == 2  # missing --N
        assert cli.main(["fidelity", "--path", "A", "--gamma", "1", "--delta", "1e-3",
                         "--c", "1", "--N", "7"]) == 2  # odd N
        # path flags the chosen path does not read
        for path, extra in (("A", ["--g", "5"]), ("A", ["--alpha", "7"]), ("B", ["--gamma", "1"]),
                            ("C", ["--g", "0.5"]), ("D", ["--gamma", "1"]),
                            ("ext", ["--alpha", "1"])):
            flags = {"A": ["--gamma", "1"], "B": ["--g", "0.5"], "D": ["--alpha", "1"]}
            argv = ["--path", path, *flags.get(path, []), *extra, "--delta", "1e-3", "--c", "1"]
            assert cli.main(["fidelity", *argv, "--N", "100"]) == 2
            assert cli.main(["sweep", *argv, "--N-range", "100:200:50"]) == 2
        # PathA at gamma = 0: the prediction has no finite rate
        assert cli.main(["fidelity", "--path", "A", "--gamma", "0", "--delta", "1e-3",
                         "--c", "0.5", "--N", "100"]) == 2
        assert cli.main(["sweep", "--path", "A", "--gamma", "0", "--delta", "1e-3",
                         "--c", "0.5", "--N-range", "100:200:50"]) == 2
        for which, extra in (("pathA", ["--gamma", "1", "--g", "0.5"]),
                             ("pathB", ["--g", "0.5", "--gamma", "1"])):
            assert cli.main(["verify", "--which", which, *extra, "--delta", "1e-3",
                             "--c-range", "0:1:2"]) == 2
        assert cli.main(["verify", "--which", "pathA", "--gamma", "0", "--delta", "1e-3",
                         "--c-range", "0:1:2"]) == 2
        assert cli.main(["scaling", "--function", "A", "--c-range", "oops"]) == 2
        assert cli.main(["nonsense"]) == 2

    def test_numeric_failure_is_3(self, monkeypatch):
        def boom(args):
            raise NumericsError("synthetic")
        monkeypatch.setattr(cli, "_verify_row", boom)
        code = cli.main(["verify", "--which", "pathA", "--gamma", "1", "--delta", "1e-3",
                         "--c-range", "0:1:2"])
        assert code == 3

    def test_quench_integral_over_budget_is_3(self, monkeypatch):
        every_panel_reports_error_one(monkeypatch)
        assert cli.main(["quench", "--gamma", "1", "--delta", "1e-3", "--N", "100",
                         "--c", "0.5"]) == 3

    def test_io_failure_is_4(self):
        code = cli.main(["scaling", "--function", "A", "--c-range", "0:1:3",
                         "--output", "/nonexistent_dir_xyz/out.csv"])
        assert code == 4

    def test_import_loads_no_scipy(self):
        # scipy is needed by the dense oracle only, which imports it on first use
        proc = subprocess.run([sys.executable, "-c", "import spinfid, sys; "
                               "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_defers_the_oracle(self):
        proc = subprocess.run([sys.executable, "-c", "import spinfid, sys; "
                               "print('spinfid.oracle' in sys.modules); "
                               "from spinfid import ed_ground_state; "
                               "print('spinfid.oracle' in sys.modules, "
                               "ed_ground_state is spinfid.oracle.ed_ground_state)"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True", "True"]

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "spinfid.cli", "scaling",
                               "--function", "A_mps", "--c-range", "0:2:5"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "c,value" in proc.stdout
