import hashlib
import json
import re
from fractions import Fraction

import pytest

from localk3 import cli


def run_cli(capsys, *args):
    code = cli.main(list(args))
    return code, capsys.readouterr().out


# SHA-256 of stdout for commands whose reports depend on no seed; a
# change to any of them is a change to the report format or the math
STDOUT_SHA256 = [
    ("hilb --max 30",
     "faf40f87bf1a37df85769ff57f6acd71e762926c454223c4426a85bf2b626809"),
    # the size of the cli benchmark's hilb run
    ("hilb --max 3000",
     "a1b16f40f6b17b24fe726171d0dd82b19a8076be825d02cab9fce44de62970ef"),
    ("pt --y-max 3 --z-max 4",
     "2151d3f583da8d485e8dc0adff574b3b7a05f34ad03fb6d54cc6f871bb152a29"),
    ("pt --y-max 3 --z-max 4 --signed --format csv",
     "a3c476de3398949da13f3994e7b4a0a48f8fdae59d9585b7bfbeaa8367f380fa"),
    ("xbar-verify --y-max 2 --z-max 3",
     "22fe73b7adf735752a55258cb886982419f3ba3532a359b6ee2b4ba25acab394"),
    ("ky-verify --q-max 4 --z-window 6",
     "a5c3afde15168dfdfd933e7c7d3d7d10bd039e726074c4a1623334ba2fd1d93f"),
    ("bps --q-max 6 --y-max 3 --z-max 8",
     "c7d72980f69b40b2c372a5a44bbad09c52e47f090764723bcf7f48ff88c57f4a"),
    ("bps --q-max 50 --y-max 6 --z-max 30",
     "c52f8b071e088e9302f06c4ff12a86e1a75f8f0687c0a66f63fca2754fc1f6d2"),
    # a KKV comparison at y_max = 8 on a window far above its need (16)
    ("bps --q-max 20 --y-max 8 --z-max 70",
     "23ed8066a6f249c729ad189fa26250ac13eb2071d7657e6751a18282774fb339"),
    # every class of weight <= 12 decided at the least window that decides them
    ("bps --q-max 20 --y-max 12 --z-max 35",
     "089d2707e83ac07002dc1f00c2cd609a67905d3b4ffe9bafea40fddbf04794f2"),
    # these two pin the config echo of the subcommands that take --vector
    ("jinv --vector 0;2,4;-2",
     "c518d7a4b7459229dbae48a1d31c5c40b716600c8935454b288fd71f1cf5c7b6"),
    ("isometry --vector 2;0,0;-2 --samples 5",
     "4f49d6ec262459bf845f4b89b0bdfc1cbca4881a89dfef0f34bb600fd87484cb"),
]


@pytest.mark.parametrize("command,digest", STDOUT_SHA256, ids=[c for c, _ in STDOUT_SHA256])
def test_stdout_matches_recorded_digest(capsys, command, digest):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_hilb_json_report(capsys):
    code, out = run_cli(capsys, "hilb", "--max", "5")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["config"]["subcommand"] == "hilb"
    assert report["mismatches"] == []
    assert report["result"]["table"] == ["1", "24", "324", "3200", "25650", "176256"]


def test_reports_are_byte_identical(capsys):
    _, first = run_cli(capsys, "bps", "--q-max", "2")
    _, second = run_cli(capsys, "bps", "--q-max", "2")
    assert first == second


def test_json_round_trips(capsys):
    _, out = run_cli(capsys, "pt", "--y-max", "2", "--z-max", "3")
    report = json.loads(out)
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == out


def test_jinv_keeps_rational_form(capsys):
    code, out = run_cli(capsys, "jinv", "--vector", "0;2,4;-2")
    assert code == 0
    assert json.loads(out)["result"]["J"] == "176337/1"
    code, out = run_cli(capsys, "jinv", "--vector", "3;0,0;3")
    assert json.loads(out)["result"]["J"] == "1/9"


def test_hilb_csv(capsys):
    _, out = run_cli(capsys, "hilb", "--max", "2", "--format", "csv")
    assert out == "n,chi\n0,1\n1,24\n2,324\n"


def test_pt_csv_quotes_classes(capsys):
    _, out = run_cli(capsys, "pt", "--y-max", "1", "--z-max", "1", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "class,z,coeff"
    assert '"0,1",1,24' in lines


def test_pt_signed_flag(capsys):
    _, plain = run_cli(capsys, "pt", "--y-max", "2", "--z-max", "3")
    _, signed = run_cli(capsys, "pt", "--y-max", "2", "--z-max", "3", "--signed")
    assert plain != signed
    assert json.loads(signed)["config"]["signed"] is True


def test_xbar_verify_passes(capsys):
    code, out = run_cli(capsys, "xbar-verify", "--y-max", "2", "--z-max", "4")
    assert code == 0
    assert json.loads(out)["mismatches"] == []


def test_ky_verify_passes(capsys):
    code, out = run_cli(capsys, "ky-verify", "--q-max", "3", "--z-window", "6")
    assert code == 0
    assert json.loads(out)["mismatches"] == []


def test_bps_with_gv_comparison(capsys):
    code, out = run_cli(capsys, "bps", "--q-max", "4", "--y-max", "3", "--z-max", "8")
    assert code == 0
    report = json.loads(out)
    assert report["mismatches"] == []
    assert report["result"]["overlap_h"] == [0, 1, 2]
    values = {(row["g"], row["h"]): row["value"] for row in report["result"]["table"]}
    assert values[(0, 1)] == "24/1"
    assert values[(2, 2)] == "3/1"
    assert "conjectural" in report["result"]["notes"]


def test_isometry_invariance(capsys):
    code, out = run_cli(capsys, "isometry", "--vector", "2;0,0;-2", "--samples", "5")
    assert code == 0
    report = json.loads(out)
    assert report["mismatches"] == []
    assert report["result"]["J"] == "176337/1"
    assert report["result"]["checked_vectors"] == 6


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(["hilb", "--max", "3", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["result"]["table"][3] == "3200"


USAGE_ERRORS = [
    (["hilb", "--max", "-1"], "--max must be >= 0"),
    (["pt", "--y-max", "-2", "--z-max", "3"], "--y-max must be >= 0"),
    (["pt", "--y-max", "2", "--z-max", "-3"], "--z-max must be >= 0"),
    (["ky-verify", "--q-max", "-2", "--z-window", "4"], "--q-max must be >= -1"),
    (["ky-verify", "--q-max", "3", "--z-window", "0"], "--z-window must be >= 1"),
    (["bps", "--q-max", "-1"], "--q-max must be >= 0"),
    (["bps", "--q-max", "3", "--y-max", "2"], "bps needs --y-max and --z-max together"),
    (["jinv", "--vector", "not-a-vector"], "expected 'r;a,b;n', got 'not-a-vector'"),
    (["jinv", "--vector", "0;0,0;0"], "vector must be nonzero"),
    (["jinv", "--vector", "1;0,0;1", "--format", "csv"],
     "csv output is only available for integer tables (hilb, pt)"),
    # the list of choices is quoted differently across Python versions
    (["unknown-subcommand"],
     "argument subcommand: invalid choice: 'unknown-subcommand'"),
    # several flags out of range: the first in --max, --y-max, --z-max,
    # --q-max, --z-window, --samples order is reported
    (["bps", "--q-max", "-1", "--y-max", "-1", "--z-max", "3"], "--y-max must be >= 0"),
    # structurally valid flags, but the window cannot decide every class
    (["bps", "--q-max", "2", "--y-max", "3", "--z-max", "1"], "bps --y-max 3 needs --z-max >= 3"),
    (["bps", "--q-max", "2", "--y-max", "12", "--z-max", "34"],
     "bps --y-max 12 needs --z-max >= 35"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS,
                         ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
def test_usage_errors_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.partition(" (choose from")[0] == f"localk3: error: {message}"


@pytest.mark.parametrize("subcommand,flags", [
    ("hilb", {"--max"}),
    ("jinv", {"--vector"}),
    ("pt", {"--y-max", "--z-max", "--signed"}),
    ("xbar-verify", {"--y-max", "--z-max"}),
    ("ky-verify", {"--q-max", "--z-window"}),
    ("bps", {"--q-max", "--y-max", "--z-max"}),
    ("isometry", {"--vector", "--samples"}),
])
def test_help_lists_exactly_the_subcommand_flags(capsys, subcommand, flags):
    with pytest.raises(SystemExit) as info:
        cli.main([subcommand, "--help"])
    assert info.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == flags | {"--help", "--format", "--out"}


def test_verification_failure_exit_code(monkeypatch, capsys):
    def fake_check(q_max, z_window):
        return [(0, 0, Fraction(1), Fraction(2))]

    monkeypatch.setattr(cli, "ky_identity_check", fake_check)
    code, out = run_cli(capsys, "ky-verify", "--q-max", "1", "--z-window", "2")
    assert code == 1
    assert json.loads(out)["mismatches"] == [
        {"q": 0, "z": 0, "left": "1/1", "right": "2/1"}]


def test_consistency_error_without_offenders_exit_code(monkeypatch, capsys):
    def fake_inv_delta(q_max):
        raise cli.ConsistencyError("q^3 row of 1/Delta is not integral")

    monkeypatch.setattr(cli, "inv_delta", fake_inv_delta)
    code, out = run_cli(capsys, "bps", "--q-max", "4")
    assert code == 1
    report = json.loads(out)
    assert report["result"] == {"error": "q^3 row of 1/Delta is not integral"}
    assert report["mismatches"] == []


def test_engine_value_error_exit_code(monkeypatch, capsys):
    # every usage check runs in _validate, so a ValueError from the engine
    # is a failed run: a report and exit 1, not a usage error
    def fake_pt_main(params):
        raise ValueError("engine refused the window")

    monkeypatch.setattr(cli, "pt_main", fake_pt_main)
    code = cli.main(["pt", "--y-max", "2", "--z-max", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["result"] == {"error": "engine refused the window"}
    assert report["mismatches"] == []


@pytest.mark.parametrize("subcommand,engine,flags", [
    ("pt", "pt_main", ["--y-max", "2", "--z-max", "3"]),
    ("hilb", "hilb_table", ["--max", "5"]),
])
def test_csv_failure_writes_the_json_report(monkeypatch, capsys, subcommand, engine, flags):
    # a failed run has no table for the CSV writer, so it reports JSON in either format
    def fail(*args):
        raise cli.ConsistencyError("q^3 coefficient is not an integer", [("q", 3)])

    monkeypatch.setattr(cli, engine, fail)
    code = cli.main([subcommand, *flags, "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["config"]["fmt"] == "csv"
    assert report["result"] == {"error": "q^3 coefficient is not an integer"}
    assert report["mismatches"] == [{"entry": ["q", "3"]}]
