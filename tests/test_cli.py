import importlib
import json

import pytest

from sharbly import cli
from sharbly import congruence as cg
from sharbly.homology import build_complex
from sharbly.voronoi import cells_to_json


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

    def test_hecke_over_a_61_bit_prime(self, run_cli):
        # roots come from gcd(f, x^p - x); a scan of F_p would not return
        out = run_cli(
            ["hecke", "--level", "23", "--ell", "2", "--degree", "0",
             "--field", "Fp:2305843009213693951"],
        )
        assert out.returncode == 0, out.stderr
        # 3 and the two roots of x^2 + x - 1, each twice
        assert "3:1;329895555426495809:2;1975947453787198141:2" in out.stdout

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

    def test_25_digit_field_exit_2(self, run_cli):
        out = run_cli(["homology", "--level", "5", "--field", "Fp:9000000000000000000000007"])
        assert out.returncode == 2, out.stderr
        assert "too large" in out.stderr

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

    def test_oracle_negative_ell_exit_2(self, run_cli):
        out = run_cli(["oracle", "--level", "11", "--ell", "-2"])
        assert out.returncode == 2, out.stderr
        assert "ell must be >= 1" in out.stderr

    def test_oracle_ell_1_is_the_identity(self, run_cli):
        # 1 divides every level, but T_1 is defined there
        out = run_cli(["oracle", "--level", "11", "--ell", "1"])
        assert out.returncode == 0, out.stderr
        assert "T_1: charpoly x^3 - 3*x^2 + 3*x - 1" in out.stdout

    @pytest.mark.parametrize("ell", ["-2", "0", "11"])
    def test_oracle_rejected_ell_prints_nothing(self, run_cli, ell):
        # the report is all or nothing: no manin_dim line before the exit
        out = run_cli(["oracle", "--level", "11", "--ell", ell])
        assert out.returncode == 2, out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("flags", [(), ("-O",)])
    def test_oracle_level_0_exit_2(self, run_cli, flags):
        out = run_cli(["oracle", "--level", "0"], python_flags=flags)
        assert out.returncode == 2, out.stderr
        assert "level must be >= 1" in out.stderr

    def test_internal_value_error_exit_4(self, monkeypatch, tmp_path, capsys):
        # a ValueError from inside the pipeline is a bug, not a bad argument
        def broken(_x):
            raise ValueError("singular matrix has no modular symbol")

        # the H_0 translate lists are cached per process: clear them so that
        # ar_reduce runs whatever ran before, and leave no list built without it
        translates = importlib.import_module("sharbly.hecke")._h0_translates
        translates.cache_clear()
        monkeypatch.setattr(importlib.import_module("sharbly.sharbly"), "ar_reduce", broken)
        try:
            code = cli.main(["hecke", "--n", "2", "--level", "11", "--ell", "2",
                             "--cache-dir", str(tmp_path)])
        finally:
            translates.cache_clear()
        assert code == 4
        assert "singular matrix" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["homology", "--level", "abc"], "invalid int value: 'abc'"),
        (["homology", "--bogus"], "unrecognized arguments: --bogus"),
        (["homology", "--level", "11", "--budget", "3"], "unrecognized arguments: --budget 3"),
        # only the subcommands that read a file option take it
        (["oracle", "--level", "11", "--out", "r.json"], "unrecognized arguments: --out r.json"),
        (["oracle", "--level", "11", "--cache-dir", "c"], "unrecognized arguments: --cache-dir c"),
        (["verify", "--out", "r.json"], "unrecognized arguments: --out r.json"),
        (["verify", "--cache-dir", "c"], "unrecognized arguments: --cache-dir c"),
        (["nofake", "--level", "11", "--ell", "2", "--a", "3", "--out", "r.json"],
         "unrecognized arguments: --out r.json"),
        (["nofake", "--level", "11", "--ell", "2"], "the following arguments are required: --a"),
        # n = 4 has cells only through enumerate_cells(4, nonsimplex_backend=True)
        (["cells", "--n", "4"], "argument --n: invalid choice: 4"),
        (["homology", "--n", "4"], "argument --n: invalid choice: 4"),
    ])
    def test_usage_error_exit_1(self, run_cli, args, message):
        out = run_cli(args)
        assert out.returncode == 1, out.stderr
        assert message in out.stderr and "Traceback" not in out.stderr

    def test_help_exit_0(self, run_cli):
        out = run_cli(["--help"])
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("usage: sharbly")

    def test_negative_budget_exit_2(self, run_cli):
        out = run_cli(["nofake", "--level", "11", "--ell", "2", "--a", "0", "--budget", "-1"])
        assert out.returncode == 2, out.stderr
        assert "budget must be >= 0" in out.stderr

    def test_negative_budget_exit_2_without_a_search(self, run_cli):
        # degree 0 runs no certificate search and is rejected all the same
        out = run_cli(["hecke", "--level", "11", "--ell", "2", "--degree", "0", "--budget", "-1"])
        assert out.returncode == 2, out.stderr
        assert "budget must be >= 0" in out.stderr

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
        second = run_cli(args)  # the cells export exists now, and is not read
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

    def test_commands_share_one_table_per_cache_dir(self, monkeypatch, tmp_path, capsys):
        # commands in one process with one --cache-dir share one table, so
        # the second finds the level's integral complex; another directory
        # gets a fresh table, and so a fresh build
        tables = []

        def recorded(*args, table):
            tables.append(table)
            return build_complex(*args, table=table)

        monkeypatch.setattr(cli, "build_complex", recorded)
        space = cg.projective_space(2, 11)
        builds = []
        for cache in ("a", "a", "b"):
            args = ["homology", "--n", "2", "--level", "11", "--cache-dir", str(tmp_path / cache)]
            assert cli.main(args) == 0
            builds.append(space.integral_complex)
        assert capsys.readouterr().out == "H0=3, H1=1\n" * 3
        assert tables[0] is tables[1] and tables[2] is not tables[0]
        assert builds[0] is builds[1] and builds[0].table is tables[0]
        assert builds[2] is not builds[0] and builds[2].table is tables[2]

    def test_cell_cache_is_neither_read_nor_rewritten(self, run_cli, tmp_path, table2):
        # a cell cache whose first top-cell facet sign is flipped: read
        # unchecked it would change the complex; it is an export, so the
        # report is the computed table's and the file stays as it is
        doc = json.loads(cells_to_json(table2))
        facet = doc["dimensions"]["2"][0]["facets"][0]
        facet["sign"] = -facet["sign"]
        path = tmp_path / "cells-n2.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        before = path.read_bytes()
        out = run_cli(["homology", "--n", "2", "--level", "11"])
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[0] == "H0=3, H1=1"
        assert path.read_bytes() == before

    def test_out_into_a_missing_directory(self, run_cli, tmp_path):
        report, csv_out = tmp_path / "nodir" / "r.json", tmp_path / "other" / "h.csv"
        out = run_cli(["homology", "--n", "2", "--level", "11", "--out", str(report)])
        assert out.returncode == 0, out.stderr
        assert json.loads(report.read_text())["betti"] == {"0": 3, "1": 1}
        out = run_cli(["hecke", "--n", "2", "--level", "11", "--ell", "2", "--out", str(csv_out)])
        assert out.returncode == 0, out.stderr
        assert "-2:2;3:1" in csv_out.read_text()


class TestParser:
    def test_one_parser_per_process(self, monkeypatch):
        # every `main` call shares one parser, and no call's values leak
        # into the next one's defaults
        seen = []
        monkeypatch.setattr(cli, "cmd_hecke", lambda args: seen.append(args.k) or 0)
        cli.build_parser.cache_clear()
        assert cli.main(["hecke", "--ell", "2", "--k", "2"]) == 0
        assert cli.main(["hecke", "--ell", "2"]) == 0
        assert seen == [2, 1]
        assert cli.main(["hecke", "--bogus"]) == 1
        assert cli.main(["hecke", "--ell", "3"]) == 0
        assert seen == [2, 1, 1]
        assert cli.build_parser.cache_info().misses == 1
