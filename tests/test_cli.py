import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from hhfrac import hweights
from hhfrac.cli import MAX_SWEEP_ROWS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert out, err
    return code, json.loads(out)


class TestVerifyCommand:
    def test_t4_bilinear_chain(self, capsys):
        code, rep = run_json(
            capsys, "verify", "--theorem", "t4", "--f", "x*y",
            "--rect", "0", "1", "0", "1", "--alpha", "1", "--beta", "1",
            "--h", "identity",
        )
        assert code == 0
        assert rep["status"] == "pass"
        assert rep["schema_version"] == 2
        r = rep["result"]
        assert r["left"] == pytest.approx(0.25, abs=1e-10)
        assert r["middle"] == pytest.approx(0.25, abs=1e-10)
        assert r["right"] == pytest.approx(0.25, abs=1e-10)
        assert rep["config"]["theorem"] == "t4"

    def test_lemma1_exp(self, capsys):
        code, rep = run_json(
            capsys, "verify", "--theorem", "lemma1", "--f", "exp(x+y)",
            "--rect", "0", "1", "0", "1", "--alpha", "0.5", "--beta", "0.5",
        )
        assert code == 0
        assert rep["result"]["residual"] <= 10.0 * rep["result"]["quadrature_error"]

    def test_lemma1_exact_identity_holds_on_a_parsed_function(self, capsys):
        # The mixed partial comes from the expression, so the identity holds
        # to round-off.
        code, rep = run_json(
            capsys, "verify", "--theorem", "lemma1",
            "--f", "exp(x+y)*sin(x*y)+x^3*y^2",
            "--rect", "0", "1", "0", "1", "--alpha", "1", "--beta", "1.3",
        )
        assert code == 0 and rep["status"] == "pass"
        assert rep["result"]["residual"] <= 1e-12

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_t5_on_an_infinite_mixed_partial_is_an_error(self, capsys):
        # d^2f/dxdy = 700 (1 + 700 xy) exp(700 xy) overflows at (1, 1)
        code, rep = run_json(
            capsys, "verify", "--theorem", "t5", "--f", "exp(700*x*y)",
            "--rect", "0", "1", "0", "1", "--alpha", "0.5", "--beta", "1.3",
            "--h", "identity",
        )
        assert code == 1 and rep["status"] == "error"
        assert "not finite at (x=1.0, y=1.0)" in rep["error"]

    def test_an_overflowing_f_leaves_stderr_empty(self):
        # The report names the fault; numpy's overflow warning must not
        # reach the user as well.
        src = str(Path(hweights.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
        out = subprocess.run(
            [sys.executable, "-m", "hhfrac.cli", "verify", "--theorem", "t5",
             "--f", "exp(700*x*y)", "--rect", "0", "1", "0", "1", "--alpha", "0.5",
             "--beta", "1.3", "--h", "identity"],
            env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 1 and "status = error" in out.stdout
        assert out.stderr == ""

    def test_t5_parsed_and_builtin_powersum_agree(self, capsys):
        # The corner derivatives of x^0.5 + y^0.5 are structural zeros: no
        # evaluation at y < 0, no domain error.
        results = []
        for f in ("x^0.5 + y^0.5", "builtin:powersum:0.5"):
            code, rep = run_json(
                capsys, "verify", "--theorem", "t5", "--f", f,
                "--rect", "0", "1", "0", "1", "--alpha", "1", "--beta", "1",
                "--h", "power:0.5",
            )
            assert code == 0 and rep["status"] == "pass"
            results.append(rep["result"])
        assert results[0] == results[1]

    def test_t4_table_weight_error_is_round_off(self, capsys):
        table = Path(__file__).resolve().parents[1] / "perfbench" / "h_table.txt"
        code, rep = run_json(
            capsys, "verify", "--theorem", "t4", "--f", "exp(x+y)",
            "--rect", "0", "1", "0", "1", "--alpha", "0.5", "--beta", "1.3",
            "--h", f"table:{table}",
        )
        assert code == 0
        assert rep["result"]["quadrature_error"] < 1e-12
        assert rep["result"]["tol"] == 1e-8

    def test_failing_inequality_exits_1(self, capsys):
        # concave f: the lower chain member exceeds the middle
        code, rep = run_json(
            capsys, "verify", "--theorem", "t1", "--f", "10 - x^2 - y^2",
            "--rect", "0", "1", "0", "1", "--alpha", "1", "--beta", "1",
        )
        assert code == 1
        assert rep["status"] == "fail"

    def test_divergent_moment_is_reported_error(self, capsys):
        code, rep = run_json(
            capsys, "verify", "--theorem", "t4", "--f", "x*y",
            "--rect", "0", "1", "0", "1", "--alpha", "0.5", "--beta", "0.5",
            "--h", "gl",
        )
        assert code == 1
        assert rep["status"] == "error"
        assert "DivergentMomentError" in rep["error"]

    def test_usage_errors_exit_2(self, capsys):
        # t6 without --p
        code, _, err = run_cli(capsys, "verify", "--theorem", "t6", "--f", "x*y",
                               "--rect", "0", "1", "0", "1",
                               "--alpha", "1", "--beta", "1", "--h", "identity")
        assert code == 2 and "--p" in err
        # h given for a theorem that does not take it
        code, _, err = run_cli(capsys, "verify", "--theorem", "t1", "--f", "x*y",
                               "--rect", "0", "1", "0", "1",
                               "--alpha", "1", "--beta", "1", "--h", "identity")
        assert code == 2
        # malformed expression
        code, _, err = run_cli(capsys, "verify", "--theorem", "t1", "--f", "x +* y",
                               "--rect", "0", "1", "0", "1",
                               "--alpha", "1", "--beta", "1")
        assert code == 2
        # negative rectangle origin violates the theorem hypothesis
        code, _, err = run_cli(capsys, "verify", "--theorem", "t1", "--f", "x*y",
                               "--rect", "-1", "1", "0", "1",
                               "--alpha", "1", "--beta", "1")
        assert code == 2

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "theorem": "t4", "f": "x*y", "rect": [0, 1, 0, 1],
            "alpha": 1.0, "beta": 1.0, "h": "identity",
        }))
        code, rep = run_json(capsys, "verify", "--config", str(cfg))
        assert code == 0 and rep["status"] == "pass"
        # flags win over the file
        code, rep = run_json(capsys, "verify", "--config", str(cfg),
                             "--f", "x^2+y^2")
        assert rep["config"]["f"] == "x^2+y^2"


class TestFracIntegrateCommand:
    def test_linear_half_order(self, capsys):
        code, rep = run_json(
            capsys, "frac-integrate", "--f1", "t", "--alpha", "0.5",
            "--side", "left", "--interval", "0", "1", "--at", "1",
        )
        assert code == 0
        assert rep["result"]["value"] == pytest.approx(0.75225277806367, rel=1e-12)

    def test_text_output_contains_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "frac-integrate", "--f1", "t", "--alpha", "0.5",
            "--side", "left", "--interval", "0", "1", "--at", "1",
        )
        assert code == 0
        assert "0.75225277806367" in out

    def test_2d(self, capsys):
        code, rep = run_json(
            capsys, "frac-integrate", "--f", "x*y", "--alpha", "1",
            "--beta", "1", "--corner", "a+c+", "--rect", "0", "1", "0", "1",
            "--at", "1", "1",
        )
        assert code == 0
        assert rep["result"]["value"] == pytest.approx(0.25, rel=1e-12)

    def test_bad_at_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "frac-integrate", "--f1", "t", "--alpha", "0.5",
            "--side", "left", "--interval", "0", "1", "--at", "2",
        )
        assert code == 2

    def test_requires_exactly_one_function(self, capsys):
        code, _, _ = run_cli(capsys, "frac-integrate", "--alpha", "0.5")
        assert code == 2


class TestCheckHConvexCommand:
    def test_pass(self, capsys):
        code, rep = run_json(
            capsys, "check-hconvex", "--f", "x*y", "--h", "identity",
            "--rect", "0", "1", "0", "1", "--grid", "7",
        )
        assert code == 0
        assert rep["result"]["verdict"] == "pass"
        assert "not a proof" in rep["result"]["message"]

    def test_fail_with_witness(self, capsys):
        code, rep = run_json(
            capsys, "check-hconvex", "--f", "0-x^2-y^2", "--h", "identity",
            "--rect", "0", "1", "0", "1", "--grid", "7",
        )
        assert code == 1
        assert rep["result"]["verdict"] == "fail"
        assert rep["result"]["witness"] is not None

    def test_grid_below_three_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "check-hconvex", "--f", "x*y", "--h", "identity",
            "--rect", "0", "1", "0", "1", "--grid", "2",
        )
        assert code == 2 and "--grid" in err

    def test_huge_grid_is_usage_error_in_bounded_memory(self, capsys):
        tracemalloc.start()
        try:
            code, _, err = run_cli(
                capsys, "check-hconvex", "--f", "x*y", "--h", "identity",
                "--rect", "0", "1", "0", "1", "--grid", "100000",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and "--grid" in err
        assert peak < 1 << 20


class TestSweepCommand:
    BASE = ("sweep", "--theorem", "t4", "--f", "builtin:powersum:1",
            "--rect", "0", "1", "0", "1", "--h", "power:1",
            "--beta", "1", "--axis", "alpha=0.5,1,2", "--axis", "s=0.5,1",
            "--nodes", "24")

    def test_powersum_sweep_all_pass(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, *self.BASE, "--output", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert lines[0].startswith("alpha,beta,s,p,theorem,h,function")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 6
        assert all(r["pass"] == "true" for r in rows)
        # lexicographic order over the axes as given
        assert [(r["alpha"], r["s"]) for r in rows] == [
            ("0.5", "0.5"), ("0.5", "1"), ("1", "0.5"),
            ("1", "1"), ("2", "0.5"), ("2", "1")]

    def test_byte_determinism(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *self.BASE, "--output", str(out1))[0] == 0
        assert run_cli(capsys, *self.BASE, "--jobs", "4",
                       "--output", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_determinism(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code, _, _ = run_cli(capsys, *self.BASE, "--format", "json",
                                 "--output", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        rep = json.loads(out1.read_text())
        assert rep["config"]["axes"]["alpha"] == [0.5, 1, 2]
        assert rep["config"]["jobs"] == 1

    def test_empty_axis_list_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--theorem", "t4", "--f", "x*y",
            "--rect", "0", "1", "0", "1", "--h", "identity",
            "--alpha", "1", "--beta", "1",
        )
        assert code == 2 and "--axis" in err

    def test_divergent_rows_carry_error_without_aborting(self, capsys, tmp_path):
        # every Godunova-Levin moment diverges, so each row records the
        # divergence in its error column and the sweep still exits 0
        out = tmp_path / "gl.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--theorem", "t4", "--f", "x*y",
            "--rect", "0", "1", "0", "1", "--h", "gl", "--beta", "1",
            "--axis", "alpha=0.5,1", "--nodes", "24",
            "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert "DivergentMomentError" in row["error"]
            assert row["pass"] == ""

    def test_lemma1_sweep_rows(self, capsys, tmp_path):
        out = tmp_path / "ok.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--theorem", "lemma1", "--f", "exp(x+y)",
            "--rect", "0", "1", "0", "1", "--beta", "1",
            "--axis", "alpha=0.5,1,1.5", "--nodes", "32",
            "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["pass"] == "true" and row["error"] == ""

    def test_s_axis_requires_power_target(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--theorem", "t1", "--f", "x*y",
            "--rect", "0", "1", "0", "1", "--alpha", "1", "--beta", "1",
            "--axis", "s=0.5",
        )
        assert code == 2 and "powersum" in err

    def test_a_table_weight_is_read_once(self, capsys, monkeypatch, tmp_path):
        table = Path(__file__).resolve().parents[1] / "perfbench" / "h_table.txt"
        argv = ("sweep", "--theorem", "t4", "--f", "exp(x+y)", "--rect", "0", "1", "0", "1",
                "--h", f"table:{table}", "--axis", "alpha=0.5,1,2", "--axis", "beta=1,1.5",
                "--nodes", "16")
        reads = []
        real = hweights.load_table

        def load_table(path):
            reads.append(path)
            return real(path)

        monkeypatch.setattr(hweights, "load_table", load_table)

        def csv(name):
            out = tmp_path / name
            assert run_cli(capsys, *argv, "--output", str(out))[0] == 0
            return out.read_bytes()

        once = csv("once.csv")
        assert reads == [str(table)] and once.count(b"\n") == 7
        # parsing f and h in every row, as a sweep used to, writes the same bytes
        monkeypatch.setattr(functools, "cache", lambda parse: parse)
        assert csv("per_row.csv") == once and len(reads) == 7

    def test_oversized_axis_product_is_usage_error_in_bounded_memory(self, capsys):
        values = ",".join(str(0.001 * (i + 1)) for i in range(400))
        tracemalloc.start()
        try:
            code, _, err = run_cli(
                capsys, "sweep", "--theorem", "t1", "--f", "x*y",
                "--rect", "0", "1", "0", "1",
                "--axis", f"alpha={values}", "--axis", f"beta={values}",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 400 x 400 = 160,000 rows, each config about 0.5 kB
        assert code == 2 and "160000 rows" in err and str(MAX_SWEEP_ROWS) in err
        assert peak < 1 << 20


GOLDEN = Path(__file__).resolve().parent / "data"
GOLDEN_F = "exp(x+y)*sin(x*y)+x^3*y^2"


class TestGoldenSweeps:
    """Sweep CSVs pinned byte for byte.  In the t6 sweep alpha varies
    fastest, so every alpha recurs after rows with other alphas."""

    @pytest.mark.parametrize("name, argv", [
        ("sweep_lemma1.csv", ("--theorem", "lemma1",
                              "--axis", "alpha=0.25,0.5,1.5,2.75", "--axis", "beta=0.5,1,2.5")),
        ("sweep_t6.csv", ("--theorem", "t6", "--beta", "1", "--h", "identity",
                          "--axis", "p=1.5,2,3", "--axis", "alpha=0.5,1,2.25")),
    ], ids=["lemma1", "t6"])
    def test_csv_is_byte_identical(self, capsys, tmp_path, name, argv):
        out = tmp_path / name
        code, _, err = run_cli(capsys, "sweep", "--f", GOLDEN_F, "--rect", "0", "1", "0", "1",
                               "--nodes", "32", *argv, "--output", str(out))
        assert code == 0, err
        assert out.read_bytes() == (GOLDEN / name).read_bytes()


#: (golden file, exit code, argv): one JSON report of each kind, pinned byte
#: for byte, so the report dataclasses, the config echo and the emitters
#: cannot drift.
GOLDEN_REPORTS = [
    ("verify_t1.json", 0, ("verify", "--theorem", "t1", "--f", GOLDEN_F,
                           "--rect", "0", "1", "0", "1", "--alpha", "0.5", "--beta", "1.5")),
    ("verify_t4.json", 0, ("verify", "--theorem", "t4", "--f", "exp(x+y)",
                           "--rect", "0", "1", "0.5", "2", "--alpha", "0.75", "--beta", "2",
                           "--h", "power:0.5")),
    ("verify_t5_builtin.json", 0, ("verify", "--theorem", "t5", "--f", "builtin:expsum",
                                   "--rect", "0", "1", "0.5", "2", "--alpha", "0.5",
                                   "--beta", "1.3", "--h", "identity")),
    ("verify_t5_abs.json", 0, ("verify", "--theorem", "t5", "--f", "abs(x-2)*exp(x*y)",
                               "--rect", "0", "1", "0", "1", "--alpha", "1", "--beta", "2",
                               "--h", "one")),
    ("verify_t5_error.json", 1, ("verify", "--theorem", "t5", "--f", "exp(700*x*y)",
                                 "--rect", "0", "1", "0", "1", "--alpha", "0.5",
                                 "--beta", "1.3", "--h", "identity")),
    ("verify_t6.json", 0, ("verify", "--theorem", "t6", "--f", GOLDEN_F,
                           "--rect", "0", "1", "0", "1", "--alpha", "0.5", "--beta", "1",
                           "--h", "power:0.5", "--p", "3")),
    ("verify_t6_gl.json", 1, ("verify", "--theorem", "t6", "--f", "builtin:product",
                              "--rect", "0.5", "1", "0", "2", "--alpha", "2", "--beta", "0.5",
                              "--h", "gl", "--p", "1.5")),
    ("verify_lemma1.json", 0, ("verify", "--theorem", "lemma1", "--f", "sqrt(x)*exp(y)",
                               "--rect", "0", "1", "0", "1", "--alpha", "0.5",
                               "--beta", "0.75")),
    ("sweep_t4.json", 0, ("sweep", "--theorem", "t4", "--f", "x^2*y^2+1",
                          "--rect", "0", "1", "0", "1", "--h", "power:0.5", "--beta", "1",
                          "--axis", "s=0.5,1", "--axis", "alpha=0.5,2")),
    ("check_hconvex.json", 1, ("check-hconvex", "--f", "exp(x+y)", "--h", "identity",
                               "--rect", "0", "1", "0", "1", "--concave", "--grid", "9")),
    ("frac_integrate.json", 0, ("frac-integrate", "--f", GOLDEN_F, "--alpha", "0.5",
                                "--beta", "1.5", "--corner", "b-d-", "--rect", "0", "1", "0", "1",
                                "--at", "0.25", "0.5")),
]


class TestGoldenReports:
    @pytest.mark.parametrize("name, exit_code, argv", GOLDEN_REPORTS,
                             ids=[name for name, _, _ in GOLDEN_REPORTS])
    def test_json_is_byte_identical(self, capsys, tmp_path, name, exit_code, argv):
        out = tmp_path / name
        code, _, err = run_cli(capsys, *argv, "--format", "json", "--output", str(out))
        assert code == exit_code, err
        assert out.read_bytes() == (GOLDEN / name).read_bytes()


class TestArgparseContract:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["no-such-command"])
        assert ei.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("verify", "--fd-step", "1e-5"),
        ("sweep", "--fd-step", "1e-5"),
        ("verify", "--scheme", "graded-composite"),
        ("sweep", "--scheme", "graded-composite"),
        ("frac-integrate", "--scheme", "graded-composite"),
    ])
    def test_removed_flags_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as ei:
            main(list(argv))
        assert ei.value.code == 2

    @pytest.mark.parametrize("field", ["fd_step", "scheme"])
    def test_removed_config_fields_exit_2(self, capsys, tmp_path, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: 1e-5}))
        code, _, err = run_cli(
            capsys, "verify", "--theorem", "t1", "--f", "x*y", "--rect", "0", "1", "0", "1",
            "--alpha", "1", "--beta", "1", "--config", str(cfg),
        )
        assert code == 2 and field in err

    CONFIG_CASES = [
        ({"theorem": "t9"}, "verify", "--theorem"),
        ({"grid": "abc"}, "check-hconvex", "--grid"),
        ({"nodes": "x"}, "verify", "--nodes"),
        ({"rect": 5}, "verify", "--rect"),
        ({"format": "xml"}, "verify", "--format"),
        ({"concave": "yes"}, "check-hconvex", "yes"),
        ({"f": ["x", "y"]}, "verify", "f takes one value"),
        ({"help": True}, "verify", "unknown field 'help'"),
    ]
    BASE = {
        "verify": {"theorem": ["t1"], "f": ["x*y"], "rect": ["0", "1", "0", "1"],
                   "alpha": ["1"], "beta": ["1"]},
        "check-hconvex": {"f": ["x*y"], "h": ["identity"], "rect": ["0", "1", "0", "1"]},
    }

    @pytest.mark.parametrize("data, command, named", CONFIG_CASES,
                             ids=[str(c[0]) for c in CONFIG_CASES])
    def test_bad_config_values_are_usage_errors(self, capsys, tmp_path, data, command, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        # A file value fills only an unset flag, so leave out the one it names.
        argv = [token for flag, values in self.BASE[command].items() if flag not in data
                for token in (f"--{flag}", *values)]
        code, out, err = run_cli(capsys, command, *argv, "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("usage error: --config") and named in err

    @pytest.mark.parametrize("command, flags, data", [
        ("verify", ("--theorem", "t6", "--f=-x*y+3", "--rect", "0", "1", "0.5", "2",
                    "--alpha", "0.5", "--beta", "1.5", "--h", "power:0.5", "--p", "2",
                    "--nodes", "16", "--rel-tol", "1e-8", "--abs-tol", "1e-7"),
         {"theorem": "t6", "f": "-x*y+3", "rect": [0, 1, 0.5, 2], "alpha": 0.5, "beta": 1.5,
          "h": "power:0.5", "p": 2, "nodes": 16, "rel-tol": 1e-8, "abs_tol": 1e-7}),
        ("sweep", ("--theorem", "t1", "--f", "x*y", "--rect", "0", "1", "0", "1",
                   "--axis", "alpha=1,2", "--axis", "beta=0.5", "--jobs", "2"),
         {"theorem": "t1", "f": "x*y", "rect": [0, 1, 0, 1],
          "axis": ["alpha=1,2", "beta=0.5"], "jobs": 2}),
        ("check-hconvex", ("--f", "x*y", "--h", "identity", "--rect", "0", "1", "0", "1",
                           "--grid", "5", "--tol", "1e-9", "--concave"),
         {"f": "x*y", "h": "identity", "rect": [0, 1, 0, 1], "grid": 5, "tol": 1e-9,
          "concave": True}),
        ("frac-integrate", ("--f1", "t", "--alpha", "0.5", "--side", "right",
                            "--interval", "0", "2", "--at", "0.5"),
         {"f1": "t", "alpha": 0.5, "side": "right", "interval": [0, 2], "at": 0.5}),
    ])
    def test_config_values_parse_as_their_flags(self, capsys, tmp_path, command, flags, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        from_flags = run_json(capsys, command, *flags)
        assert run_json(capsys, command, "--config", str(cfg)) == from_flags


    def test_an_expression_with_a_leading_minus_joins_its_flag(self, capsys, tmp_path):
        argv = ("verify", "--theorem", "t1", "--rect", "0", "1", "0", "1",
                "--alpha", "1", "--beta", "1")
        with pytest.raises(SystemExit) as ei:
            main([*argv, "--f", "-x*y+3"])
        assert ei.value.code == 2
        assert "--f: expected one argument" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"f": "-x*y+3"}))
        joined = run_json(capsys, *argv, "--f=-x*y+3")
        assert joined[0] == 0 and joined[1]["config"]["f"] == "-x*y+3"
        assert run_json(capsys, *argv, "--config", str(cfg)) == joined


class TestTableFileErrors:
    """A table weight that cannot be loaded is a usage error naming the file."""

    @pytest.fixture(params=["missing", "directory", "not utf-8", "non-numeric", "unordered"])
    def table(self, request, tmp_path):
        path = tmp_path / "h.txt"
        named = "cannot read"
        if request.param == "directory":
            path.mkdir()
        elif request.param == "not utf-8":
            path.write_bytes(b"0 1\n\xff 1\n")
        elif request.param == "non-numeric":
            path.write_text("# t h\n0 1\n0.5 abc\n1 1\n")
            named = "bad table line 3"
        elif request.param == "unordered":
            path.write_text("0 1\n0.5 2\n0.2 1\n")
            named = "strictly increasing"
        return path, named

    @pytest.mark.parametrize("argv", [
        ("verify", "--theorem", "t4", "--f", "x*y", "--alpha", "1", "--beta", "1"),
        ("sweep", "--theorem", "t4", "--f", "x*y", "--beta", "1", "--axis", "alpha=1,2"),
        ("check-hconvex", "--f", "x*y"),
    ], ids=lambda argv: argv[0])
    def test_exit_2(self, capsys, table, argv):
        path, named = table
        code, out, err = run_cli(capsys, *argv, "--rect", "0", "1", "0", "1",
                                 "--h", f"table:{path}")
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and str(path) in err and named in err
