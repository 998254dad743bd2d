import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bergman
from bergman.cli import RunConfig, parse_config, run


def read(path):
    return path.read_text()


class TestExitCodes:
    def test_success(self, tmp_path):
        out = tmp_path / "a.csv"
        assert run(["cpn", "--n", "1", "--m", "7", "--out", str(out)]) == 0

    def test_missing_required_is_2(self):
        assert run(["cpn", "--n", "1"]) == 2

    def test_bad_weights_is_2(self):
        assert run(["orbifold-eval", "--weights", "2/4", "--z", "1.0"]) == 2

    def test_wrong_point_length_is_2(self):
        assert run(["orbifold-eval", "--weights", "1/3,1/5", "--z", "1.0"]) == 2

    def test_unwritable_output_is_1(self):
        assert run(["cpn", "--n", "1", "--m", "3",
                    "--out", "/nonexistent/dir/x.csv"]) == 1

    def test_no_command_is_2(self, capsys):
        assert run([]) == 2
        capsys.readouterr()


class TestOutputFormat:
    def test_headers_carry_version_and_config(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run(["orbifold-eval", "--weights", "1/3", "--z", "1.0",
                    "--out", str(out)]) == 0
        lines = read(out).splitlines()
        assert lines[0].startswith("# bergman ")
        assert lines[1] == "# command: orbifold-eval"
        cfg = json.loads(lines[2].removeprefix("# config: "))
        assert cfg["weights"] == "1/3"
        assert lines[3] == "rho"

    def test_orbifold_eval_fixture(self, tmp_path):
        # rho at |z| = 1 on C/Z_3: 1 + 2 e^{-3 pi/2} cos(sqrt(3) pi / 2)
        out = tmp_path / "o.csv"
        run(["orbifold-eval", "--weights", "1/3", "--z", "1.0", "--out", str(out)])
        rho = float(read(out).splitlines()[-1])
        assert abs(rho - 0.983601465813) < 1e-10

    def test_oracle_columns(self, tmp_path):
        out = tmp_path / "o.csv"
        run(["orbifold-eval", "--weights", "1/3", "--z", "1.0", "--oracle",
             "--out", str(out)])
        lines = [ln for ln in read(out).splitlines() if not ln.startswith("#")]
        assert lines[0] == "rho,oracle,tail_bound,degree_cap"
        rho, oracle, tail, _ = lines[1].split(",")
        assert abs(float(rho) - float(oracle)) <= float(tail) + 1e-10

    def test_subunity_fixture(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["subunity", "--weights", "1/3", "--out", str(out)]) == 0
        row = [ln for ln in read(out).splitlines() if not ln.startswith("#")][1]
        t_sq, rho, k = row.split(",")
        assert abs(float(t_sq) - 2 / math.sqrt(3)) < 1e-9
        assert abs(float(rho) - (1 - 2 * math.exp(-math.sqrt(3) * math.pi))) < 1e-10
        assert k == "0"

    def test_stdout_when_no_out(self, capsys):
        assert run(["cpn", "--n", "2", "--m", "3"]) == 0
        cap = capsys.readouterr()
        assert "n,m,rho_exact,rho_oracle" in cap.out
        assert "2,3,20,20" in cap.out

    def test_module_entry_point(self):
        src = str(Path(bergman.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "bergman.cli", "cpn", "--n", "2", "--m", "3"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0
        assert "n,m,rho_exact,rho_oracle" in proc.stdout
        assert "2,3,20,20" in proc.stdout

    def test_resonance_ray_is_numeric(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["resonance", "--weights", "1/3,1/5", "--out", str(out)]) == 0
        lines = [ln for ln in read(out).splitlines() if not ln.startswith("#")]
        assert lines[0] == "j,margin,sin_sum,r"
        ray = lines[1].split(",")[3].split(";")
        assert len(ray) == 2
        assert all(math.isfinite(float(x)) for x in ray)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["revolution", "--profile", "round", "--m", "9", "--grid", "64"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        # identical apart from the echoed output path in the config header
        la = [ln for ln in read(a).splitlines() if not ln.startswith("# config")]
        lb = [ln for ln in read(b).splitlines() if not ln.startswith("# config")]
        assert la == lb

    def test_cone_sweep_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["cone-sweep", "--k-list", "10", "--m-list", "25",
                    "--out", str(out)]) == 0
        lines = read(out).splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "k,m,inf_norm,sup_norm,argmin_r,l1,l2,linf,verdict"
        assert any("eps_witness" in ln for ln in lines if ln.startswith("#"))


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"command": "cpn", "n": 1, "m": 7}))
        cfg = parse_config(str(path))
        assert isinstance(cfg, RunConfig)
        assert cfg.command == "cpn"
        assert cfg.params["n"] == 1 and cfg.params["m"] == 7
        assert cfg.params["out"] is None

    def test_config_subcommand_runs(self, tmp_path):
        path = tmp_path / "run.json"
        out = tmp_path / "o.csv"
        path.write_text(json.dumps(
            {"command": "cpn", "n": 1, "m": 7, "out": str(out)}))
        assert run(["config", str(path)]) == 0
        assert "1,7,8,8" in read(out)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"command": "cpn", "n": 1, "m": 7, "bogus": 3}))
        with pytest.raises(ValueError):
            parse_config(str(path))
        assert run(["config", str(path)]) == 2

    def test_missing_command_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n": 1, "m": 7}))
        with pytest.raises(ValueError):
            parse_config(str(path))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            parse_config(str(path))
        assert run(["config", str(path)]) == 2

    def test_missing_file_is_2(self, tmp_path):
        assert run(["config", str(tmp_path / "absent.json")]) == 2
