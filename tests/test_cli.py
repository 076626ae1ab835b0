import json
import re
import shlex
from pathlib import Path

import pytest

from carrays import acceptance, cli
from carrays.cli import main


def run_cli(capsys, monkeypatch, argv, stdin=""):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_convert_to_dtableau(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["convert", "--to", "dtableau"], "2 4\n1 3\n"
    )
    assert code == 0
    assert out == "1 3\n2 4\n"


def test_convert_back(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["convert", "--to", "carray"], "1 3\n2 4\n"
    )
    assert code == 0
    assert out == "2 4\n1 3\n"


def test_convert_json(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["convert", "--to", "dtableau", "--json"],
        json.dumps({"top": [2, 4], "bottom": [1, 3]}),
    )
    assert code == 0
    assert json.loads(out) == {"rows": [[1, 3], [2, 4]]}


def test_normalize_text(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["normalize"], "1\n2\n")
    assert code == 0
    assert out == "-1\n2\n1\n"


def test_normalize_zero(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["normalize"], "2 3\n2 5\n")
    assert code == 0
    assert out == "0\n"


def test_normalize_json(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["normalize", "--json"], '{"top": [1], "bottom": [2]}'
    )
    assert json.loads(out) == {"sign": -1, "top": [2], "bottom": [1]}


def test_classify(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["classify"], "2 4 6\n1 3 5\n")
    assert code == 0
    assert out == "c_array\n"


def test_straighten_json_output(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["straighten"], "3 3 4\n1 1 2\n")
    assert code == 0
    assert json.loads(out) == [
        {"coeff": "-2", "top": [3, 3, 4], "bottom": [1, 2, 1]}
    ]


def test_straighten_stats(capsys, monkeypatch):
    stdin = "2 4 6\n1 3 5\n"
    _, plain, plain_err = run_cli(capsys, monkeypatch, ["straighten"], stdin)
    code, out, err = run_cli(capsys, monkeypatch, ["straighten", "--stats"], stdin)
    assert code == 0
    assert out == plain
    assert plain_err == ""
    assert err == "steps=2 peak_terms=7 max_den=1\n"


def test_enumerate_normal(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["enumerate", "--content", "1,1", "--normal"]
    )
    assert code == 0
    assert out == "2 / 1\n"


def test_enumerate_json(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["enumerate", "--content", "1,1,1,1", "--normal", "--json"],
    )
    assert json.loads(out) == [
        {"top": [2, 4], "bottom": [1, 3]},
        {"top": [3, 4], "bottom": [1, 2]},
        {"top": [3, 4], "bottom": [2, 1]},
    ]


def test_dims(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["dims", "--content", "1,1,1,1"])
    assert code == 0
    assert out == "3\n"


def test_hilbert(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["hilbert", "--k", "2", "--maxdeg", "8"]
    )
    assert code == 0
    assert out == "1 + t1*t2 + t1^2*t2^2\n"


def test_hilbert_methods_agree(capsys, monkeypatch):
    outputs = set()
    for method in ("cd", "tableaux", "dims"):
        _, out, _ = run_cli(
            capsys,
            monkeypatch,
            ["hilbert", "--k", "3", "--maxdeg", "6", "--method", method],
        )
        outputs.add(out)
    assert len(outputs) == 1


def test_hilbert_slowness_warning_follows_k(capsys, monkeypatch):
    # high degree in few variables is fast and stays silent
    for method in ("cd", "tableaux", "dims"):
        code, _, err = run_cli(
            capsys,
            monkeypatch,
            ["hilbert", "--k", "3", "--maxdeg", "20", "--method", method],
        )
        assert code == 0
        assert err == ""
    # ten variables are slow even at the default degree; the series
    # itself is stubbed out
    monkeypatch.setitem(cli.HILBERT_METHODS, "cd", lambda k, maxdeg: "stub")
    code, out, err = run_cli(capsys, monkeypatch, ["hilbert", "--k", "10"])
    assert code == 0
    assert out == "stub\n"
    assert err == "warning: k=10 variables; this may be slow\n"


def test_enumerate_slowness_warning_follows_entries(capsys, monkeypatch):
    # both enumerators are stubbed out; only the entry count and the
    # enumerator matter
    monkeypatch.setattr(cli, "enumerate_normal", lambda content: [((2, 1),)])
    monkeypatch.setattr(cli, "enumerate_carrays", lambda content: [((1, 2),)])
    warning = "warning: {} entries; this may be slow\n".format
    for content, flags, line, want_err in (
        ("1," * 14 + "1", ["--normal"], "2 / 1\n", ""),
        ("2," * 7 + "1,1", ["--normal"], "2 / 1\n", ""),
        ("2," * 9 + "1,1", ["--normal"], "2 / 1\n", warning(20)),
        ("1," * 15 + "1", [], "1 / 2\n", warning(16)),
    ):
        code, out, err = run_cli(
            capsys, monkeypatch, ["enumerate", "--content", content, *flags]
        )
        assert code == 0
        assert out == line
        assert err == want_err


def test_codim(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["codim", "--max-m", "3"])
    assert code == 0
    assert out == "1 0 1 0 3 0 10\n"


def test_verify_c3(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["verify", "--identity", "c3", "--samples", "5", "--seed", "9"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity=c3 samples=5 generators=12 seed=9"
    assert lines[1] == "ok: all substitutions vanished"


def test_verify_non_identity_fails_with_witness(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["verify", "--identity", "c2", "--samples", "20", "--seed", "0"],
    )
    assert code == 1
    assert "counterexample at sample" in out
    assert "w1 =" in out and "w2 =" in out


def test_verify_p_default_generators(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        monkeypatch,
        ["verify", "--identity", "p", "--samples", "2", "--seed", "1"],
    )
    assert code == 0
    assert out.splitlines()[0] == "identity=p samples=2 generators=16 seed=1"


def test_deterministic_output(capsys, monkeypatch):
    first = run_cli(capsys, monkeypatch, ["enumerate", "--content", "1,1,1,1,1,1"])
    second = run_cli(capsys, monkeypatch, ["enumerate", "--content", "1,1,1,1,1,1"])
    assert first == second


def test_bad_input_exits_2(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["classify"], "1 2\nx y\n")
    assert code == 2
    assert "error" in err and "usage" in err


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["classify", "--json"], '{"top": [2.7, 3.9], "bottom": [1.2, true]}'),
        (["classify", "--json"], '{"top": [2, 4], "bottom": [1, true]}'),
        (["classify", "--json"], '{"top": 5, "bottom": 3}'),
        (["convert", "--to", "carray", "--json"], '{"rows": [[1, 3.0], [2, 4]]}'),
        (["convert", "--to", "carray", "--json"], '{"rows": [[1, 3], 5]}'),
        (["convert", "--to", "carray", "--json"], '{"rows": 5}'),
    ],
    ids=[
        "floats",
        "bool",
        "scalar-rows",
        "tableau-float",
        "tableau-scalar-row",
        "tableau-scalar-rows",
    ],
)
def test_bad_json_input_exits_2(capsys, monkeypatch, argv, payload):
    code, out, err = run_cli(capsys, monkeypatch, argv, payload)
    assert code == 2
    assert out == ""
    assert "error" in err and "usage" in err


def test_verify_rejects_too_few_generators(capsys, monkeypatch):
    # an explicit 0 is rejected, not replaced by the default
    code, out, err = run_cli(
        capsys, monkeypatch, ["verify", "--identity", "c3", "--generators", "0"]
    )
    assert code == 2
    assert out == ""
    assert "need at least 3 generators" in err


README = Path(__file__).resolve().parents[1] / "README.md"
_SHOWS_OUTPUT = re.compile(r'carrays (.+?)\s+# (?:stdin: "(.*)"\s+)?->\s+(.+)')
_SHOWS_EXIT = re.compile(r"carrays (.+?)\s+# .*\bexits (\d)")


def _readme_text(field: str) -> str:
    """A README stdin or output field: quoted with ``\\n`` escapes, or bare."""
    if field.startswith('"') and field.endswith('"'):
        field = field[1:-1]
    return field.replace("\\n", "\n")


def test_readme_command_examples(capsys, monkeypatch):
    # every README command line that shows its output or exit code
    # gives exactly that
    seen = []
    for line in README.read_text().splitlines():
        if match := _SHOWS_OUTPUT.match(line):
            args, stdin, expected = match.groups()
            argv = shlex.split(args)
            stdin = _readme_text(stdin or "")
            code, out, _ = run_cli(capsys, monkeypatch, argv, stdin)
            assert (code, out) == (0, _readme_text(expected) + "\n"), line
        elif match := _SHOWS_EXIT.match(line):
            argv = shlex.split(match[1])
            code, _, _ = run_cli(capsys, monkeypatch, argv)
            assert code == int(match[2]), line
        else:
            continue
        seen.append(argv[0])
    assert seen == [
        "convert",
        "convert",
        "enumerate",
        "dims",
        "hilbert",
        "codim",
        "verify",
    ]


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_rejects_nonpositive_samples(capsys, monkeypatch, samples):
    code, out, err = run_cli(
        capsys, monkeypatch, ["verify", "--identity", "c2", "--samples", samples]
    )
    assert code == 2
    assert "ok" not in out
    assert "samples must be at least 1" in err


def test_unknown_subcommand_exits_2(capsys, monkeypatch):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(capsys, monkeypatch, ["frobnicate"])
    assert excinfo.value.code == 2


def stub_pass():
    return "fine"


def stub_fail():
    raise acceptance.CheckFailed("witness")


STUB_CHECKS = {"1-stub-pass": stub_pass, "2-stub-fail": stub_fail}


def test_selftest_reports_every_check(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "CHECKS", STUB_CHECKS)
    code, out, _ = run_cli(capsys, monkeypatch, ["selftest"])
    assert code == 1
    assert out.splitlines() == [
        f"carrays selftest (grassmann seed={acceptance.GRASSMANN_SEED})",
        f"PASS  {'1-stub-pass':32}  fine",
        f"FAIL  {'2-stub-fail':32}  witness",
        "1/2 checks passed",
    ]


def test_selftest_times_each_check(capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "CHECKS", STUB_CHECKS)
    code, out, err = run_cli(capsys, monkeypatch, ["selftest"])
    assert code == 1
    timings = err.splitlines()
    assert [line.split(": ")[0] for line in timings] == ["1-stub-pass", "2-stub-fail"]
    assert all(line.endswith(" s") for line in timings)

    code, out, err = run_cli(capsys, monkeypatch, ["selftest", "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["grassmann_seed"] == acceptance.GRASSMANN_SEED
    assert [
        (c["id"], c["passed"], c["detail"]) for c in report["checks"]
    ] == [("1-stub-pass", True, "fine"), ("2-stub-fail", False, "witness")]
    assert all(
        isinstance(c["seconds"], float) and c["seconds"] >= 0 for c in report["checks"]
    )
    assert len(err.splitlines()) == 2

    monkeypatch.setattr(acceptance, "CHECKS", {"1-stub-pass": stub_pass})
    code, out, _ = run_cli(capsys, monkeypatch, ["selftest", "--json"])
    assert code == 0 and json.loads(out)["checks"][0]["passed"] is True
