"""Command-line interface: tables, check suites, exit codes, result cache."""

import json
import os
import subprocess
import sys

import pytest

import coxkit
from coxkit import cli
from coxkit.cli import build_parser, main


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_klpoly_csv(capsys):
    rc, out, _ = run(capsys, ["klpoly", "--type", "A2", "--cap", "3",
                              "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y,x,poly"
    assert "e,s1*s2*s1,v^3" in lines
    assert "s1,s1*s2*s1,v^2" in lines
    assert "s1*s2*s1,s1*s2*s1,1" in lines
    assert len(lines) == 20


def test_npoly_with_I(capsys):
    rc, out, _ = run(capsys, ["npoly", "--type", "A2", "--I", "s1",
                              "--cap", "3", "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines == ["y,x,poly", "e,e,1", "e,s2,v", "s2,s2,1",
                     "s2,s2*s1,v", "s2*s1,s2*s1,1"]


def test_npoly_json_format(capsys):
    rc, out, _ = run(capsys, ["npoly", "--type", "A2", "--I", "s1", "s2",
                              "--cap", "3", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"columns": ["y", "x", "poly"], "rows": [["e", "e", "1"]]}


def test_pcan_pretty(capsys):
    rc, out, _ = run(capsys, ["pcan", "--type", "B2", "--cap", "6",
                              "s1", "s2", "s1", "s2"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["x", "multiplicity"]
    assert lines[2].split() == ["s1*s2*s1*s2", "1"]
    assert lines[3].split() == ["s1*s2", "2"]


def test_check_positivity_passes(capsys):
    rc, out, _ = run(capsys, ["check", "positivity", "--type", "A2",
                              "--cap", "4", "--I", "s1"])
    assert rc == 0
    assert out.startswith("PASS positivity")


def test_check_deodhar_passes(capsys):
    rc, out, _ = run(capsys, ["check", "deodhar", "--type", "B2",
                              "--cap", "6", "--I", "s2"])
    assert rc == 0
    assert out.startswith("PASS deodhar")


def test_check_gradedrank_count_zero_is_vacuous(capsys):
    rc, out, _ = run(capsys, ["check", "gradedrank", "--type", "A2",
                              "--cap", "4", "--count", "0"])
    assert rc == 0
    assert out.startswith("PASS gradedrank")


def test_check_localization_small(capsys):
    rc, out, _ = run(capsys, ["check", "localization", "--type", "A2",
                              "--cap", "6", "--I", "s1", "--word-cap", "2"])
    assert rc == 0
    assert out.startswith("PASS localization")


def test_usage_errors_exit_2(capsys):
    rc, _, err = run(capsys, ["klpoly", "--type", "nosuch"])
    assert rc == 2
    assert json.loads(err)["error"]
    rc, _, err = run(capsys, ["npoly", "--type", "A2", "--I", "s9"])
    assert rc == 2
    rc, _, err = run(capsys, ["check", "finitary", "--type", "affA1",
                              "--cap", "6", "--I", "s1", "s2"])
    assert rc == 2  # not finitary


@pytest.mark.parametrize("argv", [
    ["klpoly", "--type", "A2", "--cap", "-2"],
    ["npoly", "--type", "A2", "--I", "s1", "--cap", "-1"],
    ["mpoly", "--type", "A2", "--I", "s1", "--cap", "-1"],
    ["check", "gradedrank", "--type", "A2", "--count", "-1"],
    ["check", "localization", "--type", "A2", "--word-cap", "-1"],
    ["check", "positivity", "--type", "A2", "--cap", "-1"],
    ["pcan", "--type", "A2", "--cap", "-1", "s1", "s2"],
])
def test_negative_count_or_cap_exit_2(capsys, argv):
    # was a vacuous PASS (--count, --word-cap) or a cap silently raised to
    # the word length (pcan --cap)
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "UsageError"
    assert ">= 0" in json.loads(err)["message"]


@pytest.mark.parametrize("name, content", [
    ("missing", None),
    ("directory", "dir"),
    ("not_utf8", b"\xff\xfe"),
    ("truncated_json", b'{"rank": 2,'),
    ("no_rank", b'{"entries": [[1, 3], [3, 1]]}'),
    ("no_entries", b'{"rank": 2}'),
    ("not_a_dict", b'[1, 2]'),
    ("row_not_a_list", b'{"rank": 2, "entries": [1, 2]}'),
    ("entry_not_a_number", b'{"rank": 2, "entries": [[1, "x"], ["x", 1]]}'),
    ("ragged_rows", b'{"rank": 2, "entries": [[1, 3], [3]]}'),
    ("empty_row", b'{"rank": 2, "entries": [[1, 3], []]}'),
    ("fractional_entry", b'{"rank": 2, "entries": [[1, 3.7], [3.7, 1]]}'),
    ("rank_mismatch", b'{"rank": 3, "entries": [[1, 3], [3, 1]]}'),
])
def test_bad_matrix_file_exit_2(capsys, tmp_path, name, content):
    path = tmp_path / (name + ".json")
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    rc, out, err = run(capsys, ["klpoly", "--matrix", str(path), "--cap", "2"])
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "UsageError"


@pytest.mark.parametrize("name", ["Ax", "A", "I2_x", "A-1", "affA-1", "affA0"])
def test_bad_type_number_exit_2(capsys, name):
    rc, _, err = run(capsys, ["klpoly", "--type", name, "--cap", "2"])
    assert rc == 2
    assert json.loads(err)["error"] == "UsageError"


def test_bad_characteristic_exit_2(capsys):
    rc, _, err = run(capsys, ["pcan", "--type", "A2", "--char", "4", "s1"])
    assert rc == 2
    assert "prime" in json.loads(err)["message"]


@pytest.mark.parametrize("argv", [
    ["--type", "A1", "s1", "s1"],
    ["--type", "affA1", "--I", "s1", "s2", "s1", "s2"],
])
def test_char_2_without_demazure_surjectivity_exit_2(capsys, argv):
    rc, out, err = run(capsys, ["pcan", "--char", "2"] + argv)
    assert rc == 2 and out == ""
    got = json.loads(err)
    assert got["error"] == "UnsupportedCharacteristicError"
    assert "not Demazure surjective" in got["message"]


def test_pcan_char0_crosscheck_runs(capsys):
    # t s t = s t s leaves the quotient for I = {s1}; the character collapses
    # to d_{s2} and the cross-check against the module action still passes
    rc, out, _ = run(capsys, ["pcan", "--type", "A2", "--I", "s1",
                              "--cap", "6", "s2", "s1", "s2"])
    assert rc == 0
    assert out.strip().splitlines()[-1].split() == ["s2", "1"]


def test_cache_warm_run_identical(capsys, tmp_path):
    argv = ["klpoly", "--type", "B2", "--cap", "4", "--format", "json",
            "--cache-dir", str(tmp_path)]
    rc1, out1, _ = run(capsys, argv)
    files = list(tmp_path.iterdir())
    assert rc1 == 0 and len(files) == 1
    rc2, out2, _ = run(capsys, argv)
    assert rc2 == 0
    assert out1 == out2
    # cache key depends on I: a different quotient misses the cache
    rc3, out3, _ = run(capsys, ["npoly", "--type", "B2", "--cap", "4",
                                "--format", "json", "--I", "s1",
                                "--cache-dir", str(tmp_path)])
    assert rc3 == 0
    assert len(list(tmp_path.iterdir())) == 2
    assert out3 != out1


def test_corrupt_cache_entry_is_recomputed(capsys, tmp_path):
    argv = ["klpoly", "--type", "A2", "--cap", "3"]
    rc0, out0, _ = run(capsys, argv)
    assert rc0 == 0
    cached = argv + ["--cache-dir", str(tmp_path)]
    assert run(capsys, cached)[0] == 0
    (entry,) = tmp_path.iterdir()
    good = entry.read_bytes()
    short_rows = json.dumps(dict(json.loads(good), rows=[["e", "e"]])).encode()
    for bad in (good[:len(good) // 2], b"\xff\xfe", b"[]", b'{"version": 1}',
                short_rows):
        entry.write_bytes(bad)
        rc, out, err = run(capsys, cached)
        assert rc == 0 and err == ""
        assert out == out0
        assert list(tmp_path.iterdir()) == [entry]
        assert json.loads(entry.read_bytes()) == json.loads(good)


@pytest.mark.parametrize("argv", [
    [cmd] + opt for cmd in ("npoly", "mpoly", "klpoly")
    for opt in (["--seed", "1"], ["--char", "5"])
] + [["klpoly", "--I", "s1"]] + [
    ["check", "positivity"] + opt
    for opt in (["--format", "csv"], ["--cache-dir", "x"], ["--char", "5"])
] + [
    ["pcan", "s1"] + opt for opt in (["--cache-dir", "x"], ["--seed", "1"])
])
def test_option_a_command_does_not_read_exits_2(capsys, argv):
    rc, out, err = run(capsys, argv[:1] + ["--type", "A2", "--cap", "2"] + argv[1:])
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "UsageError"


@pytest.mark.parametrize("argv", [
    ["npoly", "--type", "A2", "--cap", "x"],
    ["pcan", "--type", "A2", "--char", "two", "s1"],
    ["klpoly", "--type", "A2", "--format", "xml"],
    ["check", "nosuch", "--type", "A2"],
    ["nosuch"],
    [],
])
def test_bad_command_line_is_a_json_usage_error(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "UsageError"


@pytest.mark.parametrize("where", ["file", "below_a_file"])
def test_unwritable_cache_dir_exits_2(capsys, tmp_path, where):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    cache = blocker if where == "file" else blocker / "sub"
    rc, out, err = run(capsys, ["klpoly", "--type", "A2", "--cap", "3",
                                "--cache-dir", str(cache)])
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "UsageError"
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("argv", [
    ["pcan", "--type", "A3", "--char", "5", "--format", "csv", "s1", "s2"],
    ["pcan", "--type", "H3", "s1", "s2", "s1", "s3", "s2", "s1"],
    ["check", "localization", "--type", "B3", "--cap", "5", "--word-cap", "3"],
    ["check", "localization", "--type", "A2", "--I", "s1", "--cap", "5",
     "--word-cap", "4"],
    ["check", "positivity", "--type", "A5", "--cap", "15"],
    ["check", "finitary", "--type", "B4", "--I", "s1", "s2", "--cap", "16"],
    ["check", "gradedrank", "--type", "A3", "--cap", "6", "--count", "200",
     "--seed", "7"],
    ["klpoly", "--type", "A3", "--cap", "6", "--format", "csv",
     "--cache-dir", "c"],
    ["mpoly", "--type", "A2", "--I", "s1", "s2", "--cap", "3", "--format", "json"],
])
def test_documented_command_lines_parse(argv):
    assert build_parser().parse_args(argv).command == argv[0]


# Commands whose options differ from one call to the next, so that an option
# value left over from an earlier call would change a later output.
_SEQUENCE = [
    ["pcan", "--type", "A2", "--I", "s1", "s2", "s1"],
    ["pcan", "--type", "A2", "s2", "s1"],
    ["pcan", "--type", "A3", "--char", "5", "--format", "csv", "s1", "s2", "s1"],
    ["pcan", "--type", "A3", "s1", "s2", "s1"],
    ["pcan", "--type", "A2", "--char", "4", "s1"],
    ["npoly", "--type", "A2", "--I", "s1", "--cap", "3", "--format", "csv"],
    ["npoly", "--type", "A2", "--cap", "3", "--format", "csv"],
    ["npoly", "--type", "A2", "--cap", "3", "--I"],
    ["klpoly", "--type", "A2", "--cap", "3"],
    ["check", "positivity", "--type", "A2", "--cap", "4", "--I", "s2"],
    ["check", "positivity", "--type", "A2", "--cap", "4"],
    ["pcan", "--bogus"],
    ["pcan", "--type", "A2", "--cap", "-1"],
]


def test_in_process_calls_match_fresh_processes(capsys, monkeypatch):
    """main builds its parser once and reuses it: a run of in-process calls
    prints what a fresh interpreter per call prints, with the same exit
    codes."""
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    src = os.path.dirname(os.path.dirname(coxkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    codes = set()
    for argv in _SEQUENCE:
        got = run(capsys, argv)
        done = subprocess.run([sys.executable, "-m", "coxkit.cli"] + argv,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert got == (done.returncode, done.stdout, done.stderr), argv
        codes.add(got[0])
    assert codes == {0, 2}
    assert len(built) == 1
