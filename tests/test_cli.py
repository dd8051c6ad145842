import json
import shlex
import subprocess
import sys

import pytest

from setrecon.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_analyze_csv_and_manifest(tmp_path):
    out = tmp_path / "table.csv"
    assert run_cli("analyze", "--mbar", "25", "--delta-max", "40", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("delta,n_bar")
    assert lines[25].split(",")[1] == "1"  # n_bar = 1 at delta = mbar
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert "table.csv" in manifest["outputs"]
    # byte-for-byte reproducible
    first = out.read_bytes()
    assert run_cli("analyze", "--mbar", "25", "--delta-max", "40", "--out", str(out)) == 0
    assert out.read_bytes() == first


def test_analyze_cap_and_bad_probs(tmp_path, capsys):
    assert run_cli("analyze", "--delta-max", "20000") == 2
    assert run_cli("analyze", "--probs", "0.5,0.4", "--delta-max", "10") == 2
    assert run_cli("analyze", "--c", "3", "--probs", "0.5,0.5", "--delta-max", "10") == 2
    capsys.readouterr()


def test_mc_json_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["mc", "--mbar", "4", "--delta", "30,60", "--samples", "400", "--seed", "5"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_text() == out2.read_text()
    payload = json.loads(out1.read_text())
    assert [r["delta"] for r in payload["results"]] == [30, 60]
    for row in payload["results"]:
        for key in ("n", "t", "u"):
            assert abs(row[key]["z"]) < 6


def test_mc_sample_floor():
    assert run_cli("mc", "--samples", "50") == 2


def test_analyze_golden_checksum(tmp_path):
    # verification parameter set, pinned from the oracle-checked build
    import hashlib

    out = tmp_path / "golden.csv"
    assert run_cli(
        "analyze", "--mbar", "33", "--gamma", "1", "--bits", "64",
        "--probs", "0.15,0.1,0.25,0.2,0.3", "--delta-max", "300",
        "--out", str(out),
    ) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "92bfae65913f6f5941a5bc7bd1c4e862109402397c4aa5e0f47c0c71bc486cb9"


def test_mc_stderr_shrinks_with_samples(tmp_path):
    out_small, out_big = tmp_path / "s.json", tmp_path / "b.json"
    base = ["mc", "--mbar", "4", "--delta", "40", "--seed", "8"]
    assert run_cli(*base, "--samples", "100", "--out", str(out_small)) == 0
    assert run_cli(*base, "--samples", "3200", "--out", str(out_big)) == 0
    small = json.loads(out_small.read_text())["results"][0]
    big = json.loads(out_big.read_text())["results"][0]
    for key in ("n", "t", "u"):
        assert small[key]["stderr"] > big[key]["stderr"]
        # same expectation, means agree within the wider error bars
        assert small[key]["expected"] == big[key]["expected"]
        assert abs(small[key]["mean"] - big[key]["mean"]) < 5 * small[key]["stderr"]


def test_reconcile_fixtures(tmp_path):
    out = tmp_path / "fig2.json"
    assert run_cli("reconcile", "--fixture", "fig2", "--out", str(out)) == 0
    got = json.loads(out.read_text())
    assert got["metrics"]["sketches_transmitted"] == 11
    assert got["metrics"]["recovery_calls"] == 11
    assert got["metrics"]["rounds"] == 4
    assert got["correct"] is True

    assert run_cli("reconcile", "--fixture", "fig3", "--protocol", "epsr",
                   "--out", str(out)) == 0
    got = json.loads(out.read_text())
    assert got["metrics"]["sketches_transmitted"] == 6
    assert got["metrics"]["recovery_calls"] == 11
    assert got["metrics"]["rounds"] == 4


def test_reconcile_trace_file(tmp_path):
    trace = tmp_path / "wire.txt"
    assert run_cli("reconcile", "--fixture", "fig3", "--trace", str(trace)) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 12  # 6 request/reply pairs
    assert lines[0] == "a_to_b,1,-,0"
    assert lines[1].startswith("b_to_a,1,-,")


def test_reconcile_random_zero_delta(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("reconcile", "--protocol", "psr", "--delta", "0",
                   "--shared", "40", "--seed", "3", "--out", str(out)) == 0
    got = json.loads(out.read_text())
    assert got["metrics"]["sketches_transmitted"] == 1
    assert got["correct"] is True


def test_reconcile_random_correct(tmp_path):
    out = tmp_path / "r.json"
    args = ["reconcile", "--protocol", "epsr", "--delta", "80", "--mbar", "5",
            "--seed", "9", "--out", str(out)]
    assert run_cli(*args) == 0
    got = json.loads(out.read_text())
    assert got["correct"] is True
    assert got["metrics"]["bits_b_to_a"] == (
        got["metrics"]["sketches_transmitted"] * got["metrics"]["wire_cost_per_sketch"]
    )
    first = out.read_bytes()
    assert run_cli(*args) == 0
    assert out.read_bytes() == first


# sha256 of stdout followed by the --trace file: a change to any reply byte,
# trace line or metric of these runs changes its digest
RECONCILE_DIGESTS = [
    (("--fixture", "fig2"),
     "96b707557209f29a7ba8e82f7b8f9d99eb0369b7fbd5e3b459bb147f90a05f74"),
    (("--fixture", "fig3"),
     "5be048972ce0488e2cd9b11821e5ad81249d9c477ef8e5fb1933f9c985355214"),
    (("--protocol", "psr", "--c", "2", "--seed", "5", "--delta", "60", "--shared", "40"),
     "a8da6135b240b7a262e9c871953baa58484b1e240791169fb8c56acd2c158398"),
    (("--protocol", "epsr", "--c", "2", "--seed", "5", "--delta", "60", "--shared", "40"),
     "0e65a600562e5a0bd6f79ddc0d9cf0b36764df8915392a8c9ff7112a62e86302"),
    (("--protocol", "psr", "--c", "3", "--seed", "5", "--delta", "60", "--shared", "40"),
     "c57edb9cfc39c7b1a59c345dda28c2795600796068c5281d375334868a51e918"),
    (("--protocol", "epsr", "--c", "3", "--seed", "5", "--delta", "60", "--shared", "40"),
     "d5d01f849bd117d37d546529fe3b38d04843bea049bb3d327e98d08b15539e3e"),
    (("--protocol", "epsr", "--probs", "0.15,0.1,0.25,0.2,0.3", "--seed", "9",
      "--delta", "300", "--shared", "2000", "--mbar", "5"),
     "fab966491caa74f788fca416fefc12198a4ca507e4e76b5a172512a8dbdfb838"),
    (("--protocol", "psr", "--probs", "99/100,1/100", "--seed", "3",
      "--delta", "300", "--shared", "0", "--mbar", "1"),  # 522 rounds
     "431b496d2d6e3b3c6a66c43ad2e590cd5d7bf7f1143d81ab921906b3b395716b"),
]


@pytest.mark.parametrize("argv, digest", RECONCILE_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in RECONCILE_DIGESTS])
def test_reconcile_golden_digest(argv, digest, tmp_path, capsys):
    import hashlib

    trace = tmp_path / "wire.txt"
    assert run_cli("reconcile", *argv, "--trace", str(trace)) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout + trace.read_bytes()).hexdigest() == digest


def test_verify_reports_failure_exit_code(monkeypatch, tmp_path, capsys):
    from setrecon import acceptance, cli

    def always_red():
        return False, "forced failure for the exit-code path"

    monkeypatch.setattr(
        acceptance, "CRITERIA", ((99, "stub", always_red),)
    )
    assert run_cli("verify", "--criteria", "99") == 3
    assert "criterion 99 [FAIL]" in capsys.readouterr().out


def test_netsim_preset_vs_custom_file(tmp_path):
    custom = tmp_path / "scen.txt"
    custom.write_text("latency_ms = 10\nthroughput_bps = 1e8\nrecovery_ms = 12.3\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    common = ["netsim", "--delta", "100", "--cores", "1,2", "--samples", "5",
              "--seed", "4", "--protocol", "both"]
    assert run_cli(*common, "--scenario", "I", "--out", str(out1)) == 0
    assert run_cli(*common, "--scenario", str(custom), "--out", str(out2)) == 0
    assert out1.read_text() == out2.read_text()


def test_netsim_cores_default_to_scenario_file(tmp_path):
    custom = tmp_path / "scen.txt"
    custom.write_text("n_cores = 2\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    common = ["netsim", "--delta", "100", "--samples", "5", "--seed", "4"]
    assert run_cli(*common, "--scenario", "I", "--cores", "2", "--out", str(out1)) == 0
    assert run_cli(*common, "--scenario", str(custom), "--out", str(out2)) == 0
    assert out1.read_text() == out2.read_text()
    assert out2.read_text().splitlines()[1].startswith("100,psr,2,")


def test_netsim_unknown_scenario(tmp_path, capsys):
    assert run_cli("netsim", "--scenario", "IV") == 2
    # keys the CLI would ignore are refused, not silently dropped
    for line in ("samples = 5", "name = x"):
        custom = tmp_path / "scen.txt"
        custom.write_text(line + "\n")
        assert run_cli("netsim", "--scenario", str(custom)) == 2
        assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "analyze --mbar 0", "analyze --gamma -1", "analyze --delta-max -1", "mc --mbar 0",
    "reconcile --mbar 0", "reconcile --gamma -1", "reconcile --c 1",
    "reconcile --delta -1", "reconcile --shared -1", "reconcile --bits 1025",
    "netsim --samples 0", "netsim --cores 0",
    "verify --criteria 10", "verify --criteria 0,9",
    'verify --criteria ""', 'netsim --cores ""', 'analyze --probs ""',
])
def test_invalid_arguments_exit_2(argv, capsys):
    assert run_cli(*shlex.split(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "analyze --delta-max 10 --out {missing}", "mc --delta 10 --samples 100 --out {missing}",
    "netsim --delta 10 --samples 1 --out {missing}", "reconcile --fixture fig2 --out {missing}",
    "verify --criteria 1 --out {missing}", "reconcile --fixture fig2 --trace {missing}",
    "netsim --scenario {tmp}", "netsim --scenario {recovery}", "netsim --scenario {throughput}",
])
def test_unusable_files_exit_2(argv, tmp_path, capsys):
    (tmp_path / "recovery.txt").write_text("recovery_ms = 1e305\n")
    (tmp_path / "throughput.txt").write_text("throughput_bps = 1e-300\n")
    paths = {"tmp": tmp_path, "missing": tmp_path / "missing" / "out",
             "recovery": tmp_path / "recovery.txt", "throughput": tmp_path / "throughput.txt"}
    assert run_cli(*(arg.format(**paths) for arg in shlex.split(argv))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_quick_criteria(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("verify", "--criteria", "1,9", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "criterion 1 [PASS]" in printed and "criterion 9 [PASS]" in printed
    report = json.loads(out.read_text())
    assert [r["number"] for r in report] == [1, 9]
    assert all(r["passed"] for r in report)


def test_console_script_entrypoint():
    got = subprocess.run(
        [sys.executable, "-m", "setrecon.cli", "--version"],
        capture_output=True, text=True,
    )
    assert got.returncode == 0
    assert "setrecon" in got.stdout
