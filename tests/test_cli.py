import importlib
import json

import pytest

from sharbly import cli


class TestCommands:
    def test_homology_line(self, run_cli):
        out = run_cli(["homology", "--n", "2", "--level", "11", "--field", "Q"])
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[0] == "H0=3, H1=1"

    def test_cells_json(self, run_cli, tmp_path):
        out = run_cli(["cells", "--n", "2"])
        assert out.returncode == 0, out.stderr
        doc = json.loads((tmp_path / "cells-n2.json").read_text())
        assert sum(len(v) for v in doc["dimensions"].values()) == 2

    def test_hecke_csv(self, run_cli):
        out = run_cli(
            ["hecke", "--n", "2", "--level", "11", "--ell", "2", "--k", "1",
             "--degree", "0", "--field", "Q"],
        )
        assert out.returncode == 0, out.stderr
        assert "x^3 + x^2 - 8*x - 12" in out.stdout
        assert "-2:2;3:1" in out.stdout

    def test_oracle(self, run_cli):
        out = run_cli(["oracle", "--level", "11", "--ell", "2"])
        assert out.returncode == 0, out.stderr
        assert "manin_dim(11) = 3" in out.stdout

    def test_nofake_witness(self, run_cli):
        out = run_cli(
            ["nofake", "--n", "2", "--level", "11", "--ell", "2", "--a", "3"],
        )
        assert out.returncode == 0, out.stderr
        assert "holds exactly" in out.stdout


class TestExitCodes:
    def test_p2_rejected_with_exit_2(self, run_cli):
        out = run_cli(["homology", "--n", "2", "--level", "11", "--field", "Fp:2"])
        assert out.returncode == 2, out.stderr

    def test_p_dividing_stabilizer_exit_2(self, run_cli):
        out = run_cli(["homology", "--n", "2", "--level", "1", "--field", "Fp:3"])
        assert out.returncode == 2, out.stderr
        assert "stabilizer" in out.stderr

    def test_bad_field_spec_exit_1(self, run_cli):
        out = run_cli(["homology", "--n", "2", "--level", "11", "--field", "R"])
        assert out.returncode == 1, out.stderr
        # Exit 1 also comes from an interpreter that cannot import sharbly.
        assert "invalid configuration" in out.stderr

    @pytest.mark.parametrize("a", ["1/0", "abc"])
    def test_unparsable_eigenvalue_exit_1(self, run_cli, a):
        out = run_cli(["nofake", "--n", "2", "--level", "11", "--ell", "2", "--a", a])
        assert out.returncode == 1, out.stderr
        assert "invalid configuration" in out.stderr

    def test_unparsable_cell_cache_exit_1(self, run_cli, tmp_path):
        (tmp_path / "cells-n2.json").write_text("{")
        out = run_cli(["homology", "--n", "2", "--level", "11"])
        assert out.returncode == 1, out.stderr
        assert "not valid JSON" in out.stderr

    @pytest.mark.parametrize("flags", [(), ("-O",)])
    def test_oracle_level_0_exit_2(self, run_cli, flags):
        out = run_cli(["oracle", "--level", "0"], python_flags=flags)
        assert out.returncode == 2, out.stderr
        assert "level must be >= 1" in out.stderr

    def test_internal_value_error_exit_4(self, monkeypatch, tmp_path, capsys):
        # a ValueError from inside the pipeline is a bug, not a bad argument
        def broken(_x):
            raise ValueError("singular matrix has no modular symbol")

        monkeypatch.setattr(importlib.import_module("sharbly.sharbly"), "ar_reduce", broken)
        code = cli.main(["hecke", "--n", "2", "--level", "11", "--ell", "2",
                         "--cache-dir", str(tmp_path)])
        assert code == 4
        assert "singular matrix" in capsys.readouterr().err

    def test_undetermined_exit_3(self, run_cli):
        out = run_cli(
            ["nofake", "--n", "2", "--level", "11", "--ell", "2", "--a", "5",
             "--budget", "1"],
        )
        assert out.returncode == 3, out.stderr

    def test_degree_one_budget_exhausted_exit_3(self, run_cli):
        out = run_cli(
            ["hecke", "--n", "2", "--level", "11", "--ell", "2", "--degree", "1",
             "--budget", "0"],
        )
        assert out.returncode == 3, out.stderr

    def test_ell_dividing_level_exit_2(self, run_cli):
        out = run_cli(
            ["hecke", "--n", "2", "--level", "10", "--ell", "2", "--degree", "0"],
        )
        assert out.returncode == 2, out.stderr

    def test_verify_passes_under_python_O(self, run_cli):
        # -O strips `assert`; every check in the battery must still run
        out = run_cli(["verify", "--seed", "7"], python_flags=["-O"])
        assert out.returncode == 0, out.stderr
        assert "all verification checks passed" in out.stdout


class TestDeterminismAndCache:
    def test_cache_round_trip_byte_identical(self, run_cli, tmp_path):
        args = ["homology", "--n", "2", "--level", "11", "--field", "Q",
                "--out", str(tmp_path / "report.json")]
        first = run_cli(args)
        assert first.returncode == 0, first.stderr
        report1 = (tmp_path / "report.json").read_bytes()
        cells1 = (tmp_path / "cells-n2.json").read_bytes()
        complex1 = (tmp_path / "complex-n2-N11-Q.json").read_bytes()
        second = run_cli(args)  # now reads the cells cache
        assert second.returncode == 0, second.stderr
        assert first.stdout == second.stdout
        assert (tmp_path / "report.json").read_bytes() == report1
        assert (tmp_path / "cells-n2.json").read_bytes() == cells1
        assert (tmp_path / "complex-n2-N11-Q.json").read_bytes() == complex1

    def test_seed_does_not_change_reports(self, run_cli):
        a = run_cli(
            ["hecke", "--n", "2", "--level", "11", "--ell", "3", "--seed", "1"],
        )
        b = run_cli(
            ["hecke", "--n", "2", "--level", "11", "--ell", "3", "--seed", "999"],
        )
        assert a.returncode == 0, a.stderr
        assert b.returncode == 0, b.stderr
        assert "T(3,1)@n=2,N=11,Q" in a.stdout
        assert a.stdout == b.stdout
