"""Tests for the command-line interface, driven through main(argv), and
of what importing it loads."""

import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_reference
from icg.cli import COMMANDS, main, parse_args
from icg.verify import verify_range


@pytest.fixture(autouse=True)
def _no_env_defaults(monkeypatch):
    # Tests that want an ICG_ default set it themselves.
    monkeypatch.delenv("ICG_FORMAT", raising=False)
    monkeypatch.delenv("ICG_JOBS", raising=False)


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
        # n * degree is 4 * 10^9 here; neither the class BFS nor the
        # class-space witness path scales with it.
        code, out, err = run(capsys, "diameter", "100000", "1")
        assert code == 0
        assert out.startswith("3 ")
        assert err == ""

    def test_saxena_k5(self, capsys):
        # n = 2 * (3*5*7*11*13)^2.  The path is pinned from the class-space
        # search; at this n no brute force can confirm that it is the
        # smallest, so that rests on the identity test against the vertex
        # scan in test_distance.py.
        code, out, err = run(
            capsys, "--format", "json", "diameter", "450900450", "1334025,1863225,4601025,9018009,25050025"
        )
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["value"] == 11
        assert obj["witness_vertex"] == 15015
        assert obj["witness_path"] == [
            0, 244082475, 118832350, 104125, 99302224, 39488899,
            14438874, 5420865, 819840, 2683065, 1349040, 15015,
        ]

    def test_invalid_divisor_exits_2(self, capsys):
        code, _, err = run(capsys, "diameter", "12", "5")
        assert code == 2
        assert err.strip() != ""

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_stdout_is_pinned(self, capsys, fmt):
        # csv has no form of its own for one diameter: it prints the text line.
        text = (
            "3 (witness vertex 2, path 0-8-5-2)\n"
            "infinite (disconnected); unreachable vertex 1\n"
        )
        expected = {
            "json": (
                '{"infinite": false, "instance": {"divisors": [3, 4], "n": 12}, "value": 3, '
                '"witness_path": [0, 8, 5, 2], "witness_vertex": 2}\n'
                '{"infinite": true, "instance": {"divisors": [2, 4], "n": 12}, "value": null, '
                '"witness_path": null, "witness_vertex": 1}\n'
            ),
        }.get(fmt, text)
        assert [main(["--format", fmt, "diameter", "12", ds]) for ds in ("3,4", "2,4")] == [0, 0]
        assert capsys.readouterr() == (expected, "")

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("text", "be89ced166e6481e507a6af9ed554e00d701a336c4d5920ef21c57c41f8fb746"),
            ("json", "b56a90ffbe2e4d16abb0f0e4a49a6bb8dcfd2a7e12578bdbe2ffe07245bad31f"),
            ("csv", "be89ced166e6481e507a6af9ed554e00d701a336c4d5920ef21c57c41f8fb746"),
        ],
    )
    def test_worked_examples_pinned(self, capsys, fmt, digest):
        # sha256 of the stdout of the four worked examples of
        # bench/workloads.py, computed before diameter read each step row
        # once per query.
        worked = [
            ("420", "60,70,84,105"),
            ("1260", "105,140,180,252"),
            ("6750", "18,75,250"),
            ("22050", "105,450,882,2450"),
        ]
        for n, ds in worked:
            assert main(["--format", fmt, "diameter", n, ds]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # The largest prime below FACTOR_BOUND.
            (
                ["1099511627689"],
                '{"applicable": true, "case_label": "OVERALL_R", '
                '"n": 1099511627689, "t": null, "value": 1}\n',
            ),
            # 1048571 * 1048573, two 20-bit primes.
            (
                ["1099503239183", "--t", "2"],
                '{"applicable": true, "case_label": "T_EQ_K", '
                '"n": 1099503239183, "t": 2, "value": 2}\n',
            ),
        ],
    )
    def test_orders_near_factor_bound(self, capsys, argv, expected):
        code, out, err = run(capsys, "--format", "json", "predict", *argv)
        assert code == 0
        assert out == expected and err == ""


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

    def test_csv_to_400_pinned(self, capsys):
        # SHA-256 of the report as csv.writer wrote it; 270 and 378 mismatch.
        code, out, _ = run(capsys, "--format", "csv", "verify", "2..400")
        assert code == 1
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "dfdba7e561c05600de9c3a95714c18eebf2d2abf5ed78753e1cdcb99a21b63d0"

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "9..3")
        assert code == 2

    def test_order_over_subset_guard_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "20790..20790")
        assert code == 2
        assert out == ""
        assert err == "error: n=20790 has 7666239 divisor subsets of size 1..5, cap is 1048576\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_range_over_subset_guard_exits_2_before_any_search(self, capsys, monkeypatch, jobs):
        # 4620 is the first order the guard refuses; 2..4619 are not searched.
        searched = []
        monkeypatch.setattr("icg.verify.verify_order", searched.append)
        code, out, err = run(capsys, "--jobs", jobs, "verify", "2..6000", "--fail-fast")
        assert (code, out, searched) == (2, "", [])
        assert err == "error: n=4620 has 1729647 divisor subsets of size 1..5, cap is 1048576\n"


class TestColdImport:
    """What a fresh interpreter loads for ``import icg.cli`` and for a
    pooled ``verify_range``."""

    #: Modules that no command uses at import time.
    UNUSED = ("dataclasses", "inspect", "concurrent.futures", "multiprocessing", "csv", "argparse")

    PROBE = """
import json, sys

def new_modules(action):
    before = set(sys.modules)
    result = action()
    return result, sorted(set(sys.modules) - before)

_, on_import = new_modules(lambda: __import__("icg.cli"))
from icg.verify import verify_range
serial, on_serial = new_modules(lambda: verify_range(2, 30, jobs=1))
pooled, on_pooled = new_modules(lambda: verify_range(2, 30, jobs=2))
print(json.dumps({"import": on_import, "serial": on_serial, "pooled": on_pooled,
                  "same": serial == pooled}))
"""

    def unused(self, names):
        return [m for m in names if any(m == u or m.startswith(u + ".") for u in self.UNUSED)]

    def test_only_the_pool_path_loads_the_pool(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        # Modules the interpreter loaded at start-up are in no diff.
        assert self.unused(loaded["import"]) == []
        assert self.unused(loaded["serial"]) == []
        assert loaded["same"]
        assert "concurrent.futures.process" in loaded["pooled"]


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

    def test_separated_beyond_k_is_empty(self, capsys):
        # k = 6, so no 7-set is separated; the 8,088,059,011,227 candidate
        # 7-subsets of the 239 proper divisors are never counted against the cap.
        code, out, err = run(capsys, "enumerate", "720720", "--t", "7", "--kind", "separated")
        assert (code, out, err) == (0, "", "")

    @pytest.mark.parametrize(
        "argv", [["100000000000000"], ["1099511627791", "--t", "1"]]
    )
    def test_order_above_factor_bound_exits_2(self, capsys, argv):
        # Refused by the FACTOR_BOUND check before proper_divisors runs, as
        # predict and diameter refuse such orders before factorize runs.
        code, out, err = run(capsys, "enumerate", *argv)
        assert code == 2
        assert out == "" and "bound exceeded" in err


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

    def test_one_is_not_prime_exits_2(self, capsys):
        code, out, err = run(capsys, "family", "saxena", "1")
        assert code == 2
        assert out == "" and err == "error: 1 is not prime\n"

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

    def test_empty_env_value_is_read(self, capsys, monkeypatch):
        # A variable that is set counts even when it is empty: it is read
        # as --format= and refused like the flag.
        monkeypatch.setenv("ICG_FORMAT", "")
        with pytest.raises(SystemExit) as exc:
            main(["predict", "30"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err and "--format" in err

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

    def test_format_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ICG_FORMAT", "json")
        code, out, _ = run(capsys, "--format", "text", "predict", "30")
        assert code == 0
        assert out == "4 [OVERALL_R_PLUS_1]\n"

    def test_format_env_not_a_format_exits_2_despite_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("ICG_FORMAT", "xml")
        with pytest.raises(SystemExit) as exc:
            main(["--format", "text", "predict", "30"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error:" in err and "--format" in err

    def test_jobs_env_not_an_integer_exits_2_despite_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("ICG_JOBS", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "1", "predict", "30"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error:" in err and "--jobs" in err

    def test_env_is_read_on_every_call(self, capsys, monkeypatch):
        # The parser is built once per process; a default frozen into it
        # would survive the delenv below.
        jobs_seen = []

        def record(lo, hi, jobs, fail_fast):
            jobs_seen.append(jobs)
            return verify_range(lo, hi)  # serial: starts no pool

        monkeypatch.setattr("icg.cli.verify_range", record)
        monkeypatch.setenv("ICG_JOBS", "2")
        monkeypatch.setenv("ICG_FORMAT", "json")
        code, out, _ = run(capsys, "verify", "2..3")
        assert code == 0 and jobs_seen == [2]
        assert json.loads(out)["mismatches"] == 0
        monkeypatch.delenv("ICG_JOBS")
        monkeypatch.delenv("ICG_FORMAT")
        code, out, _ = run(capsys, "verify", "2..3")
        assert code == 0 and jobs_seen == [2, 1]
        assert out.startswith("range 2..3: ")


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


class TestReadmeExamples:
    # README lines whose trailing comment is the command's exact output;
    # the other comments describe the command.
    DOCUMENTED_OUTPUT = {
        "diameter 12 3,4",
        "worst-vertex 540 45,20,108",
        "worst-vertex 6750 75,250,18 --variant II",
        "family saxena 3,5",
    }

    def test_command_line_block(self, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
        checked = set()
        for line in block.splitlines():
            command, _, comment = line.partition("#")
            argv = shlex.split(command)
            assert argv[0] == "icg", line
            code, out, _ = run(capsys, *argv[1:])
            assert code == 0, line
            if " ".join(argv[1:]) in self.DOCUMENTED_OUTPUT:
                assert out == comment.strip() + "\n", line
                checked.add(" ".join(argv[1:]))
        assert checked == self.DOCUMENTED_OUTPUT


def parse_outcome(parse, argv, env):
    """(outcome, stdout, stderr) of ``parse(argv)`` with the ICG_ variables
    of ``env`` set (a None value unset).  The outcome is ("accepted", the
    parsed values), ("rejected", 2) or ("help", 0)."""
    saved = {var: os.environ.get(var) for var in env}
    out, err = io.StringIO(), io.StringIO()
    try:
        for var, value in env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
        with redirect_stdout(out), redirect_stderr(err):
            outcome = ("accepted", vars(parse(argv)))
    except SystemExit as exc:
        outcome = ("help" if exc.code == 0 else "rejected", exc.code)
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    return outcome, out.getvalue(), err.getvalue()


INTS = ["30", "540", "12", "1", "0", "-5", "x", "", "1.5", "5x", " 7", "- 5", "\u0663", "1" * 5000]
DIVISOR_LISTS = ["3,4", "45,20,108", "1,2", "3,,4", "3,x", "", ",", "3", "-3", "3, 4", "-3, 4"]
RANGES = ["2..20", "12..12", "9..3", "2..", "..5", "2...5", "2..3..4", "x..y", "2-5", ""]
FLAG_VALUES = {
    "--format": ["text", "json", "csv", "xml", "", "JSON", "-h"],
    "--jobs": ["1", "2", "0", "-1", "abc", "", "1" * 5000],
    "--t": INTS,
    "--kind": ["separated", "connected", "both", ""],
    "--variant": ["I", "II", "III", "i"],
    "--fail-fast": None,
}
#: command -> (a pool of values for each positional, its flags)
GRAMMAR = {
    "diameter": ([INTS, DIVISOR_LISTS], []),
    "predict": ([INTS], ["--t"]),
    "verify": ([RANGES], ["--fail-fast"]),
    "enumerate": ([INTS], ["--t", "--kind"]),
    "worst-vertex": ([INTS, DIVISOR_LISTS], ["--variant"]),
    "pst": ([INTS, DIVISOR_LISTS], []),
    "family": ([["saxena", "foo", ""], DIVISOR_LISTS], []),
}
UNKNOWN_FLAGS = ["--bogus", "--bogus=1", "-x", "--max-subsets=5", "--oracle-bound=10"]


@st.composite
def flag_tokens(draw, flag):
    """``flag`` or a unique prefix of it, given a value apart, with ``=``,
    or none at all; a flag that takes no value is given one now and then."""
    spelled = draw(st.sampled_from([flag] + [flag[:k] for k in range(3, len(flag))]))
    values = FLAG_VALUES[flag]
    if values is None:
        return draw(st.sampled_from([[spelled]] * 4 + [[spelled + "=x"]]))
    value = draw(st.sampled_from(values))
    return draw(st.sampled_from([[spelled, value], [f"{spelled}={value}"], [spelled]]))


@st.composite
def command_lines(draw):
    """ICG_ values and an argv: global flags, then perhaps a command with
    its positionals (at times one short or one over) and flags, unknown
    flags, help flags and global flags mixed in."""
    env = {
        "ICG_FORMAT": draw(st.sampled_from([None] * 8 + ["json", "text", "xml", ""])),
        "ICG_JOBS": draw(st.sampled_from([None] * 8 + ["1", "2", "abc", "-1"])),
    }
    extra_flags = st.one_of(
        st.sampled_from(["--format", "--jobs"]).flatmap(flag_tokens),
        st.sampled_from(UNKNOWN_FLAGS).map(lambda flag: [flag]),
        st.sampled_from(["-h", "--help", "--he"]).map(lambda flag: [flag]),
    )
    before = draw(st.lists(st.sampled_from(["--format", "--jobs"]).flatmap(flag_tokens), max_size=2))
    if draw(st.integers(0, 9)) == 0:
        before.append(draw(extra_flags))
    name = draw(st.sampled_from([*GRAMMAR] * 3 + ["foo", "", "pred", None]))
    units = []
    if name is not None:
        pools, flags = GRAMMAR.get(name, ([INTS], []))
        units = [[draw(st.sampled_from(pool))] for pool in pools]
        size = draw(st.sampled_from(["exact"] * 6 + ["short", "over"]))
        if size == "short":
            units.pop(draw(st.integers(0, len(units) - 1)))
        elif size == "over":
            units.append([draw(st.sampled_from(INTS))])
        for flag in draw(st.lists(st.sampled_from(flags), max_size=3)) if flags else []:
            units.insert(draw(st.integers(0, len(units))), draw(flag_tokens(flag)))
        if draw(st.integers(0, 4)) == 0:
            units.insert(draw(st.integers(0, len(units))), draw(extra_flags))
        units.insert(0, [name])
    return env, [token for unit in before + units for token in unit]


class TestParserMatchesReference:
    """``parse_args`` against the argparse parser it replaced
    (``tests/cli_reference.py``), on generated command lines."""

    @settings(max_examples=600, deadline=None)
    @given(command_lines())
    def test_same_outcome(self, line):
        env, argv = line
        expected, _, ref_err = parse_outcome(cli_reference.parse_args, argv, env)
        got, out, err = parse_outcome(parse_args, argv, env)
        assert got == expected
        if got[0] == "rejected":
            assert got[1] == 2
            assert out == "" and "error:" in err and "error:" in ref_err
        elif got[0] == "help":
            assert out.startswith("usage: icg")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--format", "json", "predict", "540", "--t", "2"],
            ["--form=csv", "--jo", "2", "verify", "2..20", "--fail"],
            ["enumerate", "--ki", "separated", "60", "--t=2"],
            ["worst-vertex", "6750", "75,250,18", "--var=II"],
            ["diameter", "-5", "-3"],
            ["pst", "12", "-3, 4"],
            ["family", "saxena", "3,5"],
        ],
    )
    def test_accepted_lines(self, argv):
        # Accepted lines are rarer among the generated ones; these are
        # always checked.
        expected, _, _ = parse_outcome(cli_reference.parse_args, argv, {})
        assert expected[0] == "accepted"
        assert parse_outcome(parse_args, argv, {})[0] == expected


class TestParserEdges:
    """Command lines outside the generated grammar, since argparse releases
    read some of them differently; these pin what ``parse_args`` does."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            # "-hh" is "-h -h"; "-hx" is "-h" with the stray "x".
            (["-hh"], 0),
            (["predict", "-h=h"], 0),
            (["-hx"], 2),
            (["predict", "30", "-h="], 2),
            (["predict", "30", "--help=x"], 2),
            (["verify", "2..3", "--fail-fast=x"], 2),
            # A bare "--" flag part matches every flag: ambiguous, even
            # after a -h.
            (["-h", "--=x"], 2),
            (["predict", "-h", "--=x"], 2),
            (["--=x", "predict", "30"], 2),
            # Only "-" followed by digits, with at most one ".", reads as a
            # number; any other token that starts with "-" is a flag.
            (["predict", "-1_000"], 2),
            (["diameter", "12", "-3,4"], 2),
            (["verify", "-2..3"], 2),
            (["predict", "-5x", "-h"], 0),
        ],
    )
    def test_exit_code(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert (out.startswith("usage: icg"), "error:" in err) == (code == 0, code == 2)

    @pytest.mark.parametrize(
        "argv, values",
        [
            # "--" ends the flags of its level: before the command, the
            # global flags.
            (["--", "predict", "30"], {"command": "predict", "n": 30}),
            (["--format=json", "--", "predict", "-5", "--t", "2"], {"format": "json", "n": -5, "t": 2}),
            (["predict", "--", "30"], {"n": 30, "t": None}),
            (["diameter", "12", "--", "3,4"], {"n": 12, "divisors": [3, 4]}),
            (["predict", "30", "--"], {"n": 30}),
        ],
    )
    def test_double_dash(self, argv, values):
        parsed = vars(parse_args(argv))
        assert {key: parsed[key] for key in values} == values

    @pytest.mark.parametrize("argv", [["predict", "--", "30", "--t", "2"], ["predict", "--", "--", "30"]])
    def test_double_dash_makes_flags_positionals(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestHelp:
    def test_top_level_lists_every_command(self, capsys):
        for flag in ("-h", "--help", "--he"):
            with pytest.raises(SystemExit) as exc:
                main([flag])
            assert exc.value.code == 0
            out, err = capsys.readouterr()
            usage = out.splitlines()[0]
            assert usage.startswith("usage: icg [-h] [--format {text,json,csv}] [--jobs JOBS] ")
            assert "{" + ",".join(COMMANDS) + "}" in usage
            assert err == ""

    @pytest.mark.parametrize(
        "command, usage",
        [
            ("diameter", "usage: icg diameter [-h] n divisors"),
            ("predict", "usage: icg predict [-h] [--t T] n"),
            ("verify", "usage: icg verify [-h] [--fail-fast] range"),
            ("enumerate", "usage: icg enumerate [-h] [--t T] [--kind {separated,connected}] n"),
            ("worst-vertex", "usage: icg worst-vertex [-h] [--variant {I,II}] n divisors"),
            ("pst", "usage: icg pst [-h] n divisors"),
            ("family", "usage: icg family [-h] {saxena} primes"),
        ],
    )
    def test_command_usage(self, capsys, command, usage):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == usage
        assert err == ""
