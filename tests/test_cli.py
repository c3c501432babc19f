import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap

import pytest

import latpack
from latpack import bounds, cli, museq
from latpack.acceptance import D_TABLE


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestEnvelope:
    def test_round_trip(self, capsys):
        code, payload = run_json(capsys, ["theta", "fixpoint"])
        assert code == 0
        assert payload["command"] == "theta fixpoint"
        assert json.loads(json.dumps(payload)) == payload
        assert "version" in payload["meta"]
        assert "tolerances" in payload["meta"]

    def test_inputs_echo_parsed_options(self, capsys, tmp_path):
        _, payload = run_json(capsys, ["museq", "certify", "--s", "1,2,3,4,5", "--mu", "3"])
        assert payload["inputs"] == {"s": [1, 2, 3, 4, 5], "mu": 3}
        _, payload = run_json(capsys, ["theta", "fit"])
        assert payload["inputs"] == {"ladder": [128, 256, 512, 1024]}
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"gram": [[1.0, 0.0], [0.0, 1.0]]}))
        _, payload = run_json(capsys, ["approx", "--gram", str(path), "--kappa", "10"])
        assert payload["inputs"] == {"gram": str(path), "kappa": 10.0, "verify": False}
        _, payload = run_json(capsys, ["theta", "table", "--max-n", "4"])
        assert payload["inputs"] == {"max_n": 4}  # --csv picks a format, not an input

    def test_strict_json(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.bounds, "eval_F", lambda n, x, y: float("nan"))
        assert cli.run(["bounds", "f", "--n", "2", "--x", "4", "--y", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1


class TestMuseq:
    def test_greedy(self, capsys):
        code, payload = run_json(
            capsys, ["museq", "greedy", "--mu", "3", "--dim", "4"]
        )
        assert code == 0
        assert payload["outputs"]["s"] == [1, 2, 3, 4, 5]
        assert payload["outputs"]["certified"] is True

    def test_certify_pass(self, capsys):
        code, payload = run_json(
            capsys, ["museq", "certify", "--s", "1,2,3,4,5", "--mu", "3"]
        )
        assert code == 0
        assert payload["outputs"]["certified"] is True
        assert payload["outputs"]["minimum_at_least"] == 3

    def test_certify_fail(self, capsys):
        code, payload = run_json(
            capsys, ["museq", "certify", "--s", "1,1", "--mu", "3"]
        )
        assert code == 0
        assert payload["outputs"]["certified"] is False
        assert payload["outputs"]["violating_norm"] == 2

    def test_obstructions(self, capsys, monkeypatch):
        calls = []
        enumerate_ball = museq.interval_obstructions
        monkeypatch.setattr(museq, "interval_obstructions",
                            lambda *a, **kw: calls.append(a) or enumerate_ball(*a, **kw))
        code, payload = run_json(
            capsys,
            ["museq", "obstructions", "--s", "1,2", "--mu", "3",
             "--lo", "1", "--hi", "10"],
        )
        assert code == 0
        assert payload["outputs"]["obstructed"]["1"] == [1, 2]
        assert payload["outputs"]["union_size"] == 2
        assert payload["outputs"]["smallest_unobstructed"] == 3
        assert len(calls) == 1  # the ball is enumerated once


class TestLattice:
    def test_report(self, capsys):
        code, payload = run_json(capsys, ["lattice", "report", "--s", "1,2,3"])
        assert code == 0
        assert payload["outputs"]["minimum"] == 3
        assert payload["outputs"]["determinant"] == 14
        assert payload["outputs"]["witness"] == [1, 1, -1]


class TestBounds:
    def test_cn(self, capsys):
        code, payload = run_json(
            capsys, ["bounds", "cn", "--n", "3", "--x", "1.15470054"]
        )
        assert code == 0
        assert payload["outputs"]["center_density_bound"] == pytest.approx(
            0.1695, abs=5e-4
        )

    def test_cn_beats_minkowski_hlawka_at_n60(self, capsys):
        code, payload = run_json(capsys, ["bounds", "cn", "--n", "60", "--x", "2.0"])
        assert code == 0
        density = bounds.convert("hermite", "density", payload["outputs"]["C"], 60)
        assert density >= 2.0 ** (1 - 60)

    def test_f_requires_y(self, capsys):
        code = cli.run(["bounds", "f", "--n", "2", "--x", "4"])
        assert code == 1

    def test_theorem1(self, capsys):
        code, payload = run_json(
            capsys,
            ["bounds", "theorem1", "--n", "2", "--delta-prev", "0.5",
             "--delta", "0.28867513459481287"],
        )
        assert code == 0
        assert payload["outputs"]["holds"] is True
        assert abs(payload["outputs"]["residual"]) < 1e-12

    def test_mordell(self, capsys):
        code, payload = run_json(
            capsys, ["bounds", "mordell", "--n", "3", "--gamma", "1.1547005"]
        )
        assert code == 0
        assert payload["outputs"]["gamma_upper"] == pytest.approx(4.0 / 3.0, rel=1e-6)


class TestTheta:
    def test_table_rows(self, capsys):
        code, payload = run_json(capsys, ["theta", "table", "--max-n", "16"])
        assert code == 0
        rows = {row["n"]: row for row in payload["outputs"]["rows"]}
        assert rows[2]["d"] == pytest.approx(D_TABLE[2][0], abs=1e-6)
        assert rows[8]["d"] == pytest.approx(D_TABLE[8][0], abs=1e-6)
        assert rows[16]["omega_iterate"] == pytest.approx(D_TABLE[16][1], abs=1e-6)

    def test_table_csv(self, capsys):
        code = cli.run(["theta", "table", "--max-n", "4", "--csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,d,omega_iterate,scaled_diff,A"
        assert len(lines) == 5

    def test_fit(self, capsys):
        code, payload = run_json(capsys, ["theta", "fit"])
        assert code == 0
        assert payload["outputs"]["c0"] == pytest.approx(23.13882534, abs=1e-4)


class TestApprox:
    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"n": 2, "gram": [[1.0, 0.0], [0.0, 1.0]]}))
        code, payload = run_json(
            capsys, ["approx", "--gram", str(path), "--kappa", "100"]
        )
        assert code == 0
        assert payload["outputs"]["v"] == [1, -100, 10000]
        assert abs(payload["outputs"]["saturation_det"]) == 1

    def test_verify_flag(self, capsys, tmp_path):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"gram": [[2.0, 1.0], [1.0, 2.0]]}))
        code, payload = run_json(
            capsys, ["approx", "--gram", str(path), "--kappa", "200",
                     "--verify"],
        )
        assert code == 0
        assert payload["outputs"]["verification"]["kernel_exact"] is True

    def test_bad_n_field(self, capsys, tmp_path):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps({"n": 3, "gram": [[1.0]]}))
        assert cli.run(["approx", "--gram", str(path), "--kappa", "10"]) == 1

    def test_verify_outside_the_grid(self, capsys, tmp_path):
        """The target's minimum is searched on a 1e-6 grid; one past float
        range, or one that rounds to 0, is refused with one line."""
        path = tmp_path / "gram.json"
        for gram in ([[1e308, 1e308], [1e308, 1.7e308]], [[1e-300]]):
            path.write_text(json.dumps({"gram": gram}))
            argv = ["approx", "--gram", str(path), "--kappa", "10", "--verify"]
            assert cli.run(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and "1e-6 grid" in err

    def test_missing_file(self, capsys):
        assert cli.run(["approx", "--gram", "/no/such/file", "--kappa", "10"]) == 1


class TestExitCodes:
    def test_input_error(self, capsys, monkeypatch, tmp_path):
        assert cli.run(["lattice", "report", "--s", "2,3"]) == 1
        capsys.readouterr()
        for argv in (["lattice", "report", "--s", "1"],
                     ["museq", "certify", "--s", "1", "--mu", "3"]):
            assert cli.run(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith("error: the basis is empty")
        for mu, lo, hi in (("3", "0", "10"), ("3", "1", "1e400"), ("0", "1", "10")):
            assert cli.run(["museq", "obstructions", "--s", "1,2", "--mu", mu,
                            "--lo", lo, "--hi", hi]) == 1
        capsys.readouterr()
        path = tmp_path / "gram.json"
        for text in ('{"gram": [[1, 2], [3]]}', '{"gram": [[1, "x"], ["x", 1]]}',
                     '{"gram": [[Infinity]]}', "5", '"xgramx"', '{"gram": [[1]'):
            path.write_text(text)
            assert cli.run(["approx", "--gram", str(path), "--kappa", "10"]) == 1
            assert capsys.readouterr().err.count("\n") == 1
        path.write_text('{"gram": [[1]]}')
        for kappa in ("nan", "inf"):
            assert cli.run(["approx", "--gram", str(path), "--kappa", kappa]) == 1
            assert capsys.readouterr().err.count("\n") == 1
        for budget in ("abc", "-5"):
            monkeypatch.setenv("LATPACK_ENUM_BUDGET", budget)
            assert cli.run(["lattice", "report", "--s", "1,2,3"]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "LATPACK_ENUM_BUDGET" in err

    def test_huge_mu(self, capsys):
        huge = "1" + "0" * 400
        assert cli.run(["museq", "greedy", "--mu", huge, "--dim", "1"]) == 2
        assert cli.run(["museq", "obstructions", "--s", "1,2", "--mu", huge,
                        "--lo", "1", "--hi", "3"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 2 and "Traceback" not in err
        # a basis vector of norm 5 lies below mu: the exact verdict, exit 0
        assert cli.run(["museq", "certify", "--s", "1,2", "--mu", huge]) == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        assert outputs["certified"] is False
        assert outputs["violating_norm"] == 5
        assert outputs["witness"] == [2, -1]

    def test_parse_error(self, capsys):
        assert cli.run(["lattice", "report", "--s", "1,x"]) == 1

    @pytest.mark.parametrize("argv,code", [pytest.param(argv, code, id=argv) for argv, code in (
        ("bounds y --n 2 --x -1", 1),
        ("bounds cn --n 3 --x 0", 1),
        ("bounds f --n 2 --x 1 --y nan", 1),
        ("bounds f --n 2 --x inf --y 1", 1),
        ("bounds mordell --n 3 --gamma inf", 1),
        ("bounds mordell --n 3 --gamma 1e308", 1),
        # past the Moebius cap: refused before the first term, not after 1e6
        ("bounds y --n 2 --x 1e-300", 2),
        ("bounds cn --n 2 --x 1e-300", 2),
        ("bounds theorem1 --n 3 --delta-prev 1e-10 --delta 1", 2),
        ("bounds f --n 2 --x 1 --y 1e300", 2),
        ("bounds theorem1 --n 3 --delta-prev 1e-300 --delta 1e300", 2),  # h underflows
        ("theta fit --ladder 1,2,x", 1),
        # the final certificate's reduction: refused before the first step
        ("museq greedy --mu 3 --dim 1000000", 2),
        ("bounds f --n 3 --x 1e300 --y 1e10", 1),  # F overflows a float
        ("bounds cn --n 3 --x 1e300", 1),  # F_3 at x/100 overflows
        ("bounds y --n 25 --x 1e-30", 1),  # Y_25 lies past float range
        # 2^(n-1) overflows, or V_n underflows to 0
        ("bounds theorem1 --n 2000 --delta-prev 0.5 --delta 0.5 --form center", 1),
        ("bounds theorem1 --n 2000 --delta-prev 0.5 --delta 0.5 --form hermite", 1),
        ("bounds theorem1 --n 2000 --delta-prev 0.5 --delta 0.5 --form density", 1),
    )] + [
        # reduced-basis Gram-Schmidt norms past float range
        pytest.param(f"lattice report --s 1,{10**200},{10**400}", 1, id="huge-entries"),
    ])
    def test_refused_with_one_line(self, capsys, argv, code):
        assert cli.run(argv.split()) == code
        out, err = capsys.readouterr()
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out == ""

    def test_budget_error(self, capsys, monkeypatch):
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", "2")
        assert cli.run(["lattice", "report", "--s", "1,31,47,59"]) == 2

    def test_budget_bounds_the_reduction(self, capsys, monkeypatch):
        # rank 10^4: 1.7e11 Gram-Schmidt steps, refused before the basis is built
        s = ",".join(["1"] * 10001)
        for argv in (["lattice", "report", "--s", s],
                     ["museq", "certify", "--s", s, "--mu", "3"]):
            assert cli.run(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert "lattice of rank 10000 is too large to reduce" in err
        # rank 3 takes 4 steps: budget 3 refuses the reduction, budget 4 the nodes
        argv = ["lattice", "report", "--s", "1,31,47,59"]
        for budget, reason in (("3", "rank 3 is too large to reduce (estimate 4,"),
                               ("4", "node budget (estimate 6,")):
            monkeypatch.setenv("LATPACK_ENUM_BUDGET", budget)
            assert cli.run(argv) == 2
            assert reason in capsys.readouterr().err

    def test_budget_bounds_the_ball_walks(self, capsys, monkeypatch):
        monkeypatch.setenv("LATPACK_ENUM_BUDGET", "2")
        for argv in ("museq greedy --mu 3 --dim 2",
                     "museq obstructions --s 1,2 --mu 3 --lo 1 --hi 10"):
            assert cli.run(argv.split()) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert "ball of squared radius 2" in err

    def test_budget_counts_the_readers_work(self, capsys):
        # 7.8e7 ball points at the third step, under the default budget, but
        # 1.2e10 pairs (z, k) for the readers to stream: refused, not run
        assert cli.run(["museq", "greedy", "--mu", "70000", "--dim", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "half-ball of squared radius 69999 in dimension 4" in err

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.run(["lattice", "report", "--bogus", "1"])


@pytest.fixture(scope="module")
def verify_paper():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["verify", "paper"])
    return code, json.loads(out.getvalue())


class TestVerifySweep:
    def test_sweep_reports_known_discrepancy_only(self, verify_paper):
        code, payload = verify_paper
        assert code == 0
        checks = payload["outputs"]["checks"]
        failing = [c["name"] for c in checks if not c["passed"]]
        assert failing == ["derivative at the fixed point"]
        assert payload["outputs"]["passed"] == len(checks) - 1

    def test_sweep_deterministic(self, verify_paper, sweep):
        def untimed(checks):
            return [{k: v for k, v in c.items() if k != "runtime_s"} for c in checks]

        _, payload = verify_paper
        assert untimed(payload["outputs"]["checks"]) == untimed(sweep)


def test_runtime_needs_neither_numpy_nor_scipy():
    """Block both imports, then run every former numpy/scipy call site."""
    code = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = sys.modules["scipy"] = None
        from latpack import approx, bounds, thetaflow
        target = approx.TargetGram.from_matrix([[2.0, 1.0], [1.0, 2.0]])
        approx.verify_approximation(target, approx.approximate(target, 50.0))
        # kmax = 707 > 400 terms at n = 9: the Euler-Maclaurin path
        assert bounds.eval_F(9, 2.0, 500.0) > 0.0
        thetaflow.asymptotic_fit(thetaflow.iterate_d(4), (1, 2, 3, 4))
    """)
    src = os.path.dirname(os.path.dirname(latpack.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
