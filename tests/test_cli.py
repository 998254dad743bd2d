import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import bergman
from bergman import cli, gram, resonance
from bergman.cli import RunConfig, parse_config, run
from bergman.gram import GramModel, gram_matrix
from bergman.models import PerturbedPotential


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

    def test_lone_rho1_is_2(self):
        assert run(["tyz", "--m1", "10", "--m2", "20", "--rho1", "11"]) == 2

    def test_unwritable_output_is_2(self, monkeypatch):
        ran = []
        monkeypatch.setitem(cli._COMMANDS, "cpn", (ran.append, cli._COMMANDS["cpn"][1]))
        assert run(["cpn", "--n", "1", "--m", "3",
                    "--out", "/nonexistent/dir/x.csv"]) == 2
        assert ran == []

    def test_nan_in_gram_is_1(self, monkeypatch):
        monkeypatch.setattr(PerturbedPotential, "phi", lambda self, z: np.full(np.shape(z), np.nan))
        assert run(["gram", "--m", "4", "--pert", "6"]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_large_m_is_not_bad_input(self, capsys):
        assert run(["lp", "--m", "200", "--pert", "6"]) != 2
        assert run(["gram", "--m", "200", "--z", "50"]) != 2
        capsys.readouterr()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gram_m200_far_point(self, tmp_path, capsys):
        # log-space evaluation: no overflow at m = 200, |z| = 50
        out = tmp_path / "g.csv"
        assert run(["gram", "--m", "200", "--z", "50", "--out", str(out)]) == 0
        rho = float(read(out).splitlines()[-1].split(",")[-1])
        assert abs(rho / 201.0 - 1.0) < 1e-10
        capsys.readouterr()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gram_m1100_unperturbed(self, tmp_path, capsys):
        # the monomial norms underflow to 0 from m = 1075 on; the Gram matrix
        # of e_k is the identity, whatever m
        out = tmp_path / "g.csv"
        assert run(["gram", "--m", "1100", "--z", "0,0.5+0.2j,3", "--out", str(out)]) == 0
        rho = [float(ln.split(",")[-1]) for ln in read(out).splitlines()[-3:]]
        assert np.max(np.abs(np.array(rho) / 1101.0 - 1.0)) <= 1e-11
        assert "# health: scaled_cond=1.0" in read(out)
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gram", "lp"])
    def test_perturbed_m_at_n_theta_is_2(self, command, monkeypatch, capsys):
        # the 512-angle grid holds harmonics 0..511: refused before any work
        monkeypatch.setattr(cli, "gram_matrix", lambda model: pytest.fail("Gram matrix built"))
        assert run([command, "--m", "512", "--pert", "6"]) == 2
        assert "needs more than n_theta = 512" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["gram", "--m", "16", "--pert", "2"],
                                      ["gram", "--m", "64", "--pert", "1"],
                                      ["lp", "--m", "16", "--pert", "2"]])
    def test_nonpositive_density_is_2(self, argv, capsys):
        # k = 1, 2 make the area density negative somewhere: no metric
        assert run(argv) == 2
        assert "area density not positive" in capsys.readouterr().err

    def test_failed_cholesky_is_1(self, monkeypatch, capsys):
        # a correction that makes G = -I: the factorization fails, which is
        # a failed computation, not bad input
        monkeypatch.setattr(gram, "_correction_matrix",
                            lambda model: -2.0 * np.diag(np.exp(gram.fs_log_norms(model.m))))
        assert run(["gram", "--m", "8", "--pert", "6", "--z", "0.2"]) == 1
        err = capsys.readouterr().err
        assert "computation failed" in err and "not positive definite" in err

    def test_lp_pert_m200(self, tmp_path, capsys):
        out = tmp_path / "l.csv"
        assert run(["lp", "--m", "200", "--pert", "6", "--out", str(out)]) == 0
        dev = float(read(out).splitlines()[-1].split(",")[-1])
        assert math.isfinite(dev) and dev > 0
        capsys.readouterr()

    @pytest.mark.parametrize("nodes", ["0", "-3"])
    def test_ray_without_nodes_is_2(self, nodes, capsys):
        assert run(["orbifold-ray", "--weights", "1/3", "--direction", "1",
                    "--nodes", nodes]) == 2
        assert "nodes must be >= 1" in capsys.readouterr().err

    def test_nan_p_is_2(self, capsys):
        assert run(["lp", "--m", "3", "--p", "nan"]) == 2
        assert "p must be >= 1" in capsys.readouterr().err

    @staticmethod
    def _count(monkeypatch, *names):
        """Calls of each cli-level name, recorded as they go through."""
        calls = []
        for name in names:
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, _n=name, _f=real, **k:
                                calls.append(_n) or _f(*a, **k))
        return calls

    @pytest.mark.parametrize("pexp", ["0.5", "nan", "-inf"])
    @pytest.mark.parametrize("pert", ["0", "6"])
    def test_lp_exponent_refused_before_the_field(self, pexp, pert, tmp_path, monkeypatch, capsys):
        calls = self._count(monkeypatch, "build_potential", "rho_revolution", "gram_matrix",
                            "rho_gram_field")
        out = tmp_path / "l.csv"
        assert run(["lp", "--m", "16", "--pert", pert, f"--p={pexp}", "--out", str(out)]) == 2
        assert calls == [] and not out.exists()
        assert "p must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("kmax", ["0", "-2"])
    def test_kmax_refused_before_the_certificate_search(self, kmax, tmp_path, monkeypatch, capsys):
        calls = self._count(monkeypatch, "construct_certificate", "find_subunity_point")
        out = tmp_path / "w.csv"
        assert run(["subunity", "--weights", "1/3", f"--kmax={kmax}", "--out", str(out)]) == 2
        assert calls == [] and not out.exists()
        assert "k_max must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("z", ["nan", "0,inf", "1e155"])
    def test_gram_point_refused_before_the_build(self, z, tmp_path, monkeypatch, capsys):
        calls = self._count(monkeypatch, "gram_matrix", "rho_gram")
        out, dump = tmp_path / "g.csv", tmp_path / "G.csv"
        assert run(["gram", "--m", "400", "--pert", "6", "--z", z, "--out", str(out),
                    "--dump-gram", str(dump)]) == 2
        assert calls == [] and not out.exists() and not dump.exists()
        assert "point must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["orbifold-eval", "--z", "1"], ["resonance"],
                                      ["subunity"], ["orbifold-ray", "--direction", "1"]])
    def test_character_table_beyond_bound_is_2(self, argv, capsys):
        assert run(argv + ["--weights", "1/5000011"]) == 2
        assert "character table entries" in capsys.readouterr().err

    def test_oracle_beyond_candidate_budget_is_2(self, capsys):
        assert run(["orbifold-eval", "--weights", "1/3,1/3,1/3", "--z", "6,6,6",
                    "--oracle"]) == 2
        assert "candidate indices" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, message", [
        (["orbifold-eval", "--weights", "1/3", "--z", "nan", "--oracle"], "point must be finite"),
        (["orbifold-eval", "--weights", "1/3,1/5", "--z", "1,inf"], "point must be finite"),
        (["orbifold-ray", "--weights", "1/3", "--direction", "1", "--tmax", "nan"],
         "t_max must be positive and finite"),
        (["orbifold-ray", "--weights", "1/3", "--direction", "1", "--tmax", "inf"],
         "t_max must be positive and finite"),
        (["orbifold-eval", "--weights", "1/3", "--z", "1e200"], "point must be finite"),
    ])
    def test_non_finite_orbifold_input_is_2(self, argv, message, capsys):
        assert run(argv) == 2
        cap = capsys.readouterr()
        assert message in cap.err and "Warning" not in cap.err and cap.out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z", ["nan", "inf", "1e155"])
    def test_gram_point_out_of_range_is_2(self, z, capsys):
        # 1 + |z|^2 overflows past sqrt(max float); before, 1e155 gave rho = 0
        # with exit 0 and NaN or inf exited 1
        assert run(["gram", "--m", "4", "--z", z]) == 2
        cap = capsys.readouterr()
        assert "point must be finite" in cap.err and "Warning" not in cap.err and cap.out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gram_large_point_in_range(self, capsys):
        # the round sphere's kernel is m + 1 everywhere, also near the bound
        assert run(["gram", "--m", "4", "--z", "1e153"]) == 0
        rho = float(capsys.readouterr().out.splitlines()[-1].rsplit(",", 1)[1])
        assert abs(rho - 5.0) <= 1e-12
        model = GramModel(4)
        z = 0.999 * math.sqrt(sys.float_info.max)
        assert abs(gram.rho_gram(gram_matrix(model), model, z) - 5.0) <= 1e-12

    @pytest.mark.parametrize("argv, message", [
        (["fscurrent", "--m-list", ","], "--m-list"),
        (["gram", "--m", "4", "--z", ","], "--z"),
        (["revolution", "--m", "5", "--grid", "0"], "n_samples must be >= 1"),
    ])
    def test_empty_list_is_2(self, argv, message, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_no_subunity_witness_is_1(self, tmp_path, monkeypatch, capsys):
        def no_witness(w, cert, k_max):
            raise ArithmeticError("no sub-unity point found; best rho = 1.5")
        monkeypatch.setattr(cli, "find_subunity_point", no_witness)
        out = tmp_path / "w.csv"
        assert run(["subunity", "--weights", "1/3", "--out", str(out)]) == 1
        assert "computation failed: no sub-unity point found; best rho = 1.5" in capsys.readouterr().err
        assert not out.exists()

    def test_direction_search_past_its_cap_is_1(self, tmp_path, monkeypatch, capsys):
        # with no direction allowed the search finds no certificate: a failed
        # computation, not bad input
        monkeypatch.setattr(resonance, "MAX_SEARCH_DIRECTIONS", 0)
        out = tmp_path / "r.csv"
        assert run(["resonance", "--weights", "1/2,1/3", "--out", str(out)]) == 1
        assert "no certificate" in capsys.readouterr().err
        assert not out.exists()

    def test_no_certificate_message_names_n_q_and_cap(self, tmp_path, monkeypatch, capsys):
        # on C^1000 the message names the system's size, not its 1000 pairs
        monkeypatch.setattr(resonance, "MAX_SEARCH_DIRECTIONS", 16)
        weights = ",".join(["1/2"] * 999 + ["1/3"])
        assert run(["resonance", "--weights", weights, "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert "no certificate for Z_6 on C^1000 among the first 16 " in err
        assert len(err.encode()) < 200

    def test_no_command_is_2(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_key_error_in_command_is_1(self, monkeypatch, capsys):
        # every key is present after validation, so a KeyError is a fault
        def broken(p):
            return p["absent"]
        monkeypatch.setitem(cli._COMMANDS, "cpn", (broken, cli._COMMANDS["cpn"][1]))
        assert run(["cpn", "--n", "1", "--m", "3"]) == 1
        assert "computation failed" in capsys.readouterr().err


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
        assert lines[3].startswith("# health: floor=")
        assert lines[4] == "rho"

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

    def test_subunity_fallback_at_large_kmax(self, tmp_path, capsys):
        # no resonance phase dips below 1; the ray scan of (0, t_0] finds the
        # witness however many phases were tried
        out = tmp_path / "w.csv"
        assert run(["subunity", "--weights", "2/5,101/210,43/90,3/20", "--kmax", "500",
                    "--out", str(out)]) == 0
        row = [ln for ln in read(out).splitlines() if not ln.startswith("#")][1]
        assert float(row.split(",")[1]) == 0.1718757387535193 and row.endswith(",-1")
        capsys.readouterr()

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

    def test_import_and_sweep_load_no_scipy(self, tmp_path):
        # neither the import, the revolution path nor any subcommand loads
        # SciPy: every shipped config, the perturbed Gram path, a ray, and a
        # resonance system
        src = str(Path(bergman.__file__).resolve().parents[1])
        configs = sorted(str(p) for p in (Path(src).parent / "configs").glob("*.json"))
        assert configs
        argvs = [["config", c] for c in configs] + [
            ["gram", "--m", "6", "--pert", "6", "--out", "g.csv"],
            ["orbifold-ray", "--weights", "1/4,1/6", "--direction", "1,1", "--out", "o.csv"],
            ["resonance", "--weights", "1/2,1/3", "--out", "r.csv"],
            ["subunity", "--weights", "1/3,1/5", "--out", "s.csv"]]
        code = ("import sys; import bergman, bergman.cli; "
                "print(sorted(k for k in sys.modules if k.startswith('scipy'))); "
                "bergman.cone_sweep([10], [25], n_samples=64); "
                "print(sorted(k for k in sys.modules if k.startswith('scipy'))); "
                f"codes = [bergman.cli.run(a) for a in {argvs!r}]; "
                "print(codes, sorted(k for k in sys.modules if k.startswith('scipy')))")
        (tmp_path / "out").mkdir()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=300, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[:2] == ["[]", "[]"]
        assert proc.stdout.splitlines()[-1] == f"{[0] * len(argvs)} []"

    def test_repeated_runs_in_one_process(self, tmp_path, capsys):
        # the parser is built once per process; every call parses afresh
        assert cli._build_parser() is cli._build_parser()
        argvs = [["cpn", "--n", "2", "--m", "3"],
                 ["orbifold-eval", "--weights", "2/4", "--z", "1.0"],
                 ["revolution", "--m", "9", "--grid", "16"],
                 ["cpn", "--n", "1"]]
        results = []
        for attempt in range(2):
            for i, argv in enumerate(argvs):
                out = tmp_path / f"{attempt}-{i}.csv"
                code = run(argv + ["--out", str(out)])
                results.append((code, read(out).replace(out.name, "") if out.exists() else None))
        capsys.readouterr()
        assert [code for code, _ in results] == [0, 2, 0, 2] * 2
        assert results[:4] == results[4:]

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

    def test_revolution_health_header(self, tmp_path):
        # m = 9 fits one block (no band, bound 0); at m = 60 the norms and
        # the area integral are banded
        out = tmp_path / "r.csv"
        for m, banded in ((9, False), (60, True)):
            assert run(["revolution", "--m", str(m), "--grid", "16", "--out", str(out)]) == 0
            health = [ln for ln in read(out).splitlines() if ln.startswith("# health: ")]
            fields = dict(f.split("=") for f in health[0].removeprefix("# health: ").split())
            assert abs(float(fields["residual"])) < 1e-9
            assert 0.0 < float(fields["table_error"]) < 1e-10
            assert (float(fields["tail_bound"]) > 0.0) == banded
            assert float(fields["tail_bound"]) <= 1e-16
        for argv in (["fscurrent", "--m-list", "10,60"], ["lp", "--m", "60"]):
            assert run(argv + ["--out", str(out)]) == 0
            health = [ln for ln in read(out).splitlines() if ln.startswith("# health: ")]
            fields = dict(f.split("=") for f in health[0].removeprefix("# health: ").split())
            assert set(fields) == {"residual", "table_error", "tail_bound"}
            assert abs(float(fields["residual"])) < 1e-9
            assert 0.0 < float(fields["tail_bound"]) <= 1e-16

    def test_large_degree_in_bounded_memory(self, tmp_path):
        # m d + 1 = 2501 monomials on about 28000 nodes: the dense sums would
        # take about 1.7 GB
        src = str(Path(bergman.__file__).resolve().parents[1])
        out = tmp_path / "d.csv"
        # the child's own peak RSS (VmHWM): getrusage's ru_maxrss would also
        # count this process, whose high-water mark the child inherits
        code = ("from bergman.cli import run; "
                "code = run(['revolution', '--profile', 'cone', '--k', '10', '--d', '500', "
                f"'--m', '5', '--out', {str(out)!r}]); "
                "print(code, int(next(ln.split()[1] for ln in open('/proc/self/status') "
                "if ln.startswith('VmHWM'))) / 1024)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=300, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        code, rss_mb = proc.stdout.split()[-2:]
        assert code == "0" and float(rss_mb) < 100.0, f"peak RSS {rss_mb} MB"
        health = [ln for ln in read(out).splitlines() if ln.startswith("# health: ")]
        fields = dict(f.split("=") for f in health[0].removeprefix("# health: ").split())
        assert abs(float(fields["residual"])) < 1e-6 * 2501
        assert float(fields["tail_bound"]) <= 1e-16

    def test_gram_path_health_header(self, tmp_path):
        # the Gram matrix of e_k is near the identity; the field integral is
        # m+1 up to the correction's quadrature error.  The monomial basis's
        # condition number is rounding noise above 1/eps and is not written.
        g, lp = tmp_path / "g.csv", tmp_path / "l.csv"
        assert run(["gram", "--m", "8", "--pert", "6", "--out", str(g)]) == 0
        assert run(["lp", "--m", "16", "--pert", "6", "--out", str(lp)]) == 0
        for path, keys in ((g, {"scaled_cond"}), (lp, {"scaled_cond", "residual"})):
            lines = read(path).splitlines()
            assert not any(ln.startswith("# condition_number: ") for ln in lines)
            health = [ln for ln in lines if ln.startswith("# health: ")]
            fields = dict(f.split("=") for f in health[0].removeprefix("# health: ").split())
            assert set(fields) == keys
            assert 1.0 <= float(fields["scaled_cond"]) < 1.1
        assert abs(float(fields["residual"])) < 1e-6

    def test_orbifold_health_header(self, tmp_path, monkeypatch, capsys):
        # the rounding floor of the character sum: below 1e-13 on C/Z_3 and
        # at least the error of rho against the exact value, there
        # 1 + 2 e^{-3 pi t^2/2} cos(sqrt(3) pi t^2/2); on the C/Z_213 ray,
        # above the minimum rho the scan reports, whose exact value is 3.8e-31
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()

        def floor(path):
            health = [ln for ln in read(path).splitlines() if ln.startswith("# health: ")]
            assert len(health) == 1
            key, value = health[0].removeprefix("# health: ").split("=")
            assert key == "floor"
            return float(value)

        def exact(t):
            with mp.workdps(30):
                y = mp.pi * mp.mpf(t) ** 2
                return 1 + 2 * mp.exp(-1.5 * y) * mp.cos(mp.sqrt(3) / 2 * y)
        for name, pick in (("orbifold_z3_eval", lambda row: ("1.0", row[0])),  # z = 1
                           ("orbifold_z3_ray", lambda row: row)):
            config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
            assert run(["config", str(config)]) == 0
            path = tmp_path / "out" / f"{name}.csv"
            rows = [ln.split(",") for ln in read(path).splitlines() if not ln.startswith("#")][1:]
            error = max(abs(float(rho) - exact(float(t))) for t, rho in map(pick, rows))
            assert error <= floor(path) < 1e-13
        out = tmp_path / "ray213.csv"
        assert run(["orbifold-ray", "--weights", "1/213", "--direction", "1", "--tmax", "8",
                    "--out", str(out)]) == 0
        rho_star = float(read(out).splitlines()[3].split("rho=")[1])
        assert 0.0 < abs(rho_star) < floor(out)
        capsys.readouterr()

    def test_gram_dump_holds_numbers(self, tmp_path, capsys):
        dump = tmp_path / "G.csv"
        assert run(["gram", "--m", "8", "--pert", "6", "--dump-gram", str(dump)]) == 0
        capsys.readouterr()
        G = gram_matrix(GramModel(8, PerturbedPotential(6)))
        rows = [ln for ln in read(dump).splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == G.size
        for row in rows:
            i, j, re, im = row.split(",")
            assert complex(float(re), float(im)) == G[int(i), int(j)]

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

    @pytest.mark.parametrize("doc,key,number", [
        ({"command": "gram", "m": 4}, "z", 0.5),
        ({"command": "cone-sweep", "m_list": "25", "grid": 64}, "k_list", 10),
    ])
    def test_values_converted_by_type(self, doc, key, number, tmp_path, capsys):
        # a number where the table says str is read as its text
        path, out = tmp_path / "run.json", tmp_path / "o.csv"
        written = []
        for value in (number, str(number)):
            path.write_text(json.dumps(dict(doc, out=str(out), **{key: value})))
            assert run(["config", str(path)]) == 0
            written.append(read(out))
        assert written[0] == written[1]
        capsys.readouterr()

    def test_integral_float_read_as_int(self, tmp_path):
        path, out = tmp_path / "run.json", tmp_path / "o.csv"
        written = []
        for m in (3, 3.0):
            path.write_text(json.dumps({"command": "cpn", "n": 1, "m": m, "out": str(out)}))
            assert run(["config", str(path)]) == 0
            written.append(read(out))
        assert written[0] == written[1]

    @pytest.mark.parametrize("doc", [
        {"command": "cpn", "n": 1, "m": [3]},
        {"command": "cpn", "n": 1, "m": "three"},
        {"command": "cpn", "n": 1, "m": 1e400},
        {"command": "tyz", "m1": 10, "m2": 20, "rho1": {}},
        {"command": "orbifold-eval", "weights": "1/3", "z": "1.0", "oracle": "false"},
        {"command": "cpn", "n": True, "m": 3},
        {"command": ["cpn"], "n": 1, "m": 3},
        {"command": "cpn", "n": 1, "m": 3.7},
    ])
    def test_wrongly_typed_value_is_2(self, doc, tmp_path, monkeypatch, capsys):
        ran = []
        for name, (_, params) in list(cli._COMMANDS.items()):
            monkeypatch.setitem(cli._COMMANDS, name, (ran.append, params))
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert run(["config", str(path)]) == 2
        assert ran == []
        assert capsys.readouterr().err.startswith("error: ")


def _as_flags(doc):
    argv = [doc["command"]]
    for key, val in doc.items():
        if key != "command" and val is not False:
            flag = "--" + key.replace("_", "-")
            argv.append(flag if val is True else f"{flag}={val}")
    return argv


@pytest.mark.parametrize("config", sorted(
    (Path(__file__).resolve().parents[1] / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_flags_and_config_write_same_bytes(config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    doc = json.loads(config.read_text())
    out = tmp_path / doc["out"]
    assert run(_as_flags(doc)) == 0
    from_flags = out.read_bytes()
    head = from_flags.decode().splitlines()[:3]
    assert head[:2] == [f"# bergman {bergman.__version__}", f"# command: {doc['command']}"]
    assert head[2].startswith("# config: ")
    assert json.loads(head[2].removeprefix("# config: ")) == parse_config(str(config)).params
    out.unlink()
    assert run(["config", str(config)]) == 0
    assert out.read_bytes() == from_flags
    capsys.readouterr()
