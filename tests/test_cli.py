"""Tests for the command-line interface, driven through main(argv)."""

import json

import pytest

from icg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestDiameter:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "diameter", "12", "3,4")
        assert code == 0
        assert out.startswith("3 ")

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "diameter", "12", "3,4")
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == 3
        assert obj["instance"] == {"n": 12, "divisors": [3, 4]}

    def test_disconnected(self, capsys):
        code, out, _ = run(capsys, "diameter", "12", "2,4")
        assert code == 0
        assert "infinite" in out

    def test_large_degree_writes_nothing_to_stderr(self, capsys):
        # n * degree is 4 * 10^9 here; the class BFS does not scale with it.
        code, out, err = run(capsys, "diameter", "100000", "1")
        assert code == 0
        assert out.startswith("3 ")
        assert err == ""

    def test_invalid_divisor_exits_2(self, capsys):
        code, _, err = run(capsys, "diameter", "12", "5")
        assert code == 2
        assert err.strip() != ""


class TestPredict:
    def test_overall(self, capsys):
        code, out, _ = run(capsys, "predict", "540")
        assert code == 0
        assert out.startswith("5 ")

    def test_with_t(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "predict", "540", "--t", "2")
        obj = json.loads(out)
        assert code == 0
        assert obj["value"] == 5
        assert obj["applicable"] is True

    def test_t_above_k(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "predict", "30", "--t", "7")
        obj = json.loads(out)
        assert code == 0
        assert obj["applicable"] is False


class TestVerify:
    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "2..20")
        assert code == 0
        assert "0 mismatches" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "12..14")
        assert code == 0
        obj = json.loads(out)
        assert obj["mismatches"] == 0

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "verify", "12..12")
        assert code == 0
        assert out.splitlines()[0] == "n,t,predicted,observed,status"

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "9..3")
        assert code == 2


class TestEnumerate:
    def test_connected_json_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "12", "--t", "2")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert {"n": 12, "divisors": [3, 4]} in rows
        assert all(len(r["divisors"]) == 2 for r in rows)

    def test_separated(self, capsys):
        code, out, _ = run(capsys, "enumerate", "12", "--t", "2", "--kind", "separated")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert {"n": 12, "divisors": [3, 4]} in rows
        assert {"n": 12, "divisors": [1, 2]} not in rows

    def test_all_sizes(self, capsys):
        code, out, _ = run(capsys, "enumerate", "12")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        sizes = {len(r["divisors"]) for r in rows}
        assert 1 in sizes and 2 in sizes


class TestWorstVertex:
    def test_variant_one(self, capsys):
        code, out, _ = run(capsys, "worst-vertex", "540", "45,20,108")
        assert code == 0
        assert out.strip() == "354"

    def test_variant_two(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "worst-vertex", "6750", "75,250,18",
            "--variant", "II",
        )
        assert code == 0
        assert json.loads(out)["vertex"] == 4005

    def test_unseparated_exits_2(self, capsys):
        code, _, err = run(capsys, "worst-vertex", "12", "1,2")
        assert code == 2

    def test_variant_two_on_condition_i_set_exits_2(self, capsys):
        # Variant II would print 30, at distance 4 in a graph of diameter 5.
        code, out, err = run(capsys, "worst-vertex", "540", "45,20,108", "--variant", "II")
        assert code == 2
        assert out == "" and "error:" in err

    def test_variant_one_on_condition_ii_set_exits_2(self, capsys):
        # Variant I would print 4755, at distance 3 in a graph of diameter 5.
        code, out, err = run(capsys, "worst-vertex", "6750", "18,75,250")
        assert code == 2
        assert out == "" and "error:" in err


class TestPst:
    def test_admissible(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "pst", "8", "1,2")
        obj = json.loads(out)
        assert code == 0
        assert obj["admissible"] is True
        assert obj["decomposition"]["hub"] == 2

    def test_not_admissible(self, capsys):
        code, out, _ = run(capsys, "pst", "6", "1,2")
        assert code == 0
        assert "not" in out


class TestFamily:
    def test_saxena(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "family", "saxena", "3,5")
        obj = json.loads(out)
        assert code == 0
        assert obj == {"n": 450, "divisors": [9, 25], "predicted_diameter": 5}

    def test_bad_prime_exits_2(self, capsys):
        code, _, err = run(capsys, "family", "saxena", "4")
        assert code == 2

    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["family", "foo", "3,5"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err and "foo" in err


class TestEnvDefaults:
    def test_format_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ICG_FORMAT", "json")
        code, out, _ = run(capsys, "predict", "30")
        assert code == 0
        assert json.loads(out)["value"] == 4

    def test_format_env_not_a_format_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ICG_FORMAT", "xml")
        with pytest.raises(SystemExit) as exc:
            main(["predict", "30"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error:" in err and "--format" in err and "xml" in err

    def test_jobs_env_not_an_integer_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ICG_JOBS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "2..3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error:" in err and "--jobs" in err

    def test_jobs_env_is_used(self, capsys, monkeypatch):
        monkeypatch.setenv("ICG_JOBS", "2")
        code, out, _ = run(capsys, "verify", "2..12")
        assert code == 0
        assert "0 mismatches" in out


class TestGlobalFlags:
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_non_positive_jobs_exits_2(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main([f"--jobs={jobs}", "verify", "2..3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error:" in err and "--jobs" in err

    def test_bad_format_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "xml", "predict", "30"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_max_subsets_flag_is_gone(self, capsys):
        for argv in (["--max-subsets=5", "verify", "2..3"], ["--max-subsets", "5", "verify", "2..3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ["0", "-1"])
    def test_non_positive_enumerate_size_exits_2(self, capsys, t):
        code, out, err = run(capsys, "enumerate", "12", "--t", t, "--kind", "separated")
        assert code == 2
        assert out == "" and "error:" in err

    def test_oracle_bound_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--oracle-bound=10", "predict", "30"])
        assert exc.value.code == 2
        assert "--oracle-bound" in capsys.readouterr().err
