"""End-to-end drives of the command line entry point."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from antimark.cli import main
from antimark.ensembles import build_catalog, catalog, nl1, parse_ensemble
from antimark.exclusion import verify_no_witness
from antimark.locc import (LoccProtocol, bell_exclusion_protocol, nl1_identification_povms,
                           serialize_protocol)
from antimark.lsam import check_lsam, sweep_theta


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("ANTIMARK_TOL", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def test_catalog_lists_builtins(capsys):
    code, out = run(capsys, "catalog")
    assert code == 0
    for name in ("trine3", "bell4", "bennett9", "theta4"):
        assert name in out


def test_catalog_json(capsys):
    code, out = run(capsys, "catalog", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["command"] == "catalog"
    names = {row["name"] for row in doc["ensembles"]}
    assert {"trine3", "su3", "pbr4"} <= names


def test_check_antidist_yes_and_no(capsys):
    code, out = run(capsys, "check-antidist", "--ensemble", "duan4")
    assert code == 0
    assert "decision: YES" in out
    code, out = run(capsys, "check-antidist", "--ensemble", "weak3")
    assert code == 1
    assert "decision: NO" in out


def test_check_antidist_json_shape(capsys):
    code, out = run(capsys, "check-antidist", "--ensemble", "duan4", "--json")
    doc = json.loads(out)
    assert code == 0
    assert set(doc) == {"command", "duration_s", "ensemble", "mode", "tol", "verdict"}
    assert doc["verdict"]["decision"] == "YES"
    assert doc["verdict"]["method"] == "triple_cover"


def test_check_antidist_local_modes(capsys):
    code, out = run(capsys, "check-antidist", "--ensemble", "duan4",
                    "--mode", "local")
    assert code == 1
    assert "party A" in out and "party B" in out
    code, out = run(capsys, "check-antidist", "--ensemble", "bell4",
                    "--mode", "local")
    assert code == 0
    assert "pairwise_walgate" in out


def test_check_antidist_local_unknown_for_entangled_overlapping(capsys, tmp_path):
    s = 2.0 ** -0.5
    doc = {"name": "tilted", "dims": [2, 2], "states": [
        {"label": "a", "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        {"label": "b", "amplitudes": [[s, 0], [0, 0], [0, 0], [s, 0]]},
    ]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "check-antidist", "--ensemble", str(path),
                    "--mode", "local")
    assert code == 1
    assert "NO" in out
    code, out = run(capsys, "check-antidist", "--ensemble", str(path),
                    "--mode", "local", "--json")
    witness = np.array([[complex(re, im) for re, im in row]
                        for row in json.loads(out)["verdict"]["witness"]])
    assert verify_no_witness(parse_ensemble(path.read_text()), witness) > 0


def test_check_lsam_single_draw_of_an_entangled_pair_is_the_local_no(capsys, tmp_path):
    """A single draw of a non-product two-party parent is the local
    question: check-lsam --n 1 gives the --mode local NO, witness and all."""
    s = 2.0 ** -0.5
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"name": "tilted", "dims": [2, 2], "states": [
        {"label": "a", "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        {"label": "b", "amplitudes": [[s, 0], [0, 0], [0, 0], [s, 0]]}]}))
    verdicts = []
    for command in (["check-antidist", "--mode", "local"], ["check-lsam", "--n", "1"]):
        code, out = run(capsys, *command, "--ensemble", str(path), "--json")
        assert code == 1
        verdicts.append(json.loads(out)["verdict"])
    assert verdicts[0] == verdicts[1]
    assert verdicts[0]["detail"].startswith("global NO: ")
    assert verdicts[0]["witness"] is not None


LOCAL_PARAMS = {"theta4": {"theta": 0.9}, "nl2": {"theta": 1.0}}


@pytest.mark.parametrize("name", list(catalog()))
def test_one_answer_per_local_question(capsys, name):
    """check_lsam(e, 1, 1), check-antidist --mode local and check-lsam --n 1
    ask one question and give one answer: decision, method, the parties'
    decisions and the exit code, for single-party ensembles too, whose one
    local part is the ensemble itself."""
    params = LOCAL_PARAMS.get(name, {})
    v = check_lsam(build_catalog(name, **params), 1, 1)
    want = (v.decision, v.method,
            {k: sub.decision for k, sub in (v.parts or {}).items()},
            {"YES": 0, "NO": 1}.get(v.decision, 2))
    flags = [arg for k, x in params.items() for arg in ("--param", f"{k}={x}")]
    for command in (["check-antidist", "--mode", "local"], ["check-lsam", "--n", "1"]):
        code, out = run(capsys, *command, "--ensemble", name, *flags, "--json")
        doc = json.loads(out)["verdict"]
        got = (doc["decision"], doc["method"],
               {k: sub["decision"] for k, sub in (doc["parts"] or {}).items()}, code)
        assert got == want, command


def test_check_lsam_exit_codes(capsys):
    code, out = run(capsys, "check-lsam", "--ensemble", "su3", "--n", "2")
    assert code == 1
    assert "decision: NO" in out
    code, out = run(capsys, "check-lsam", "--ensemble", "su3", "--n", "2",
                    "--global")
    assert code == 0
    assert "decision: YES" in out


def test_check_lsam_json_carries_parts(capsys):
    code, out = run(capsys, "check-lsam", "--ensemble", "su3", "--n", "2",
                    "--json")
    doc = json.loads(out)
    assert code == 1
    assert set(doc["parts"]) == {"A", "B"}


def test_check_lsam_on_an_entangled_parent_is_a_data_error(capsys):
    code = main(["check-lsam", "--ensemble", "bell4", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert "the local-part criterion needs a product parent" in captured.err


def test_check_lsam_multi_claim_is_a_usage_error(capsys):
    code, err = run_err(capsys, "check-lsam", "--ensemble", "su3", "--n", "2", "--m", "2")
    assert code == 64
    assert "m > 1 has no criterion" in err


@pytest.mark.parametrize("m", ["0", "-1"])
def test_check_lsam_claims_below_one_are_a_usage_error(capsys, m):
    code, err = run_err(capsys, "check-lsam", "--ensemble", "su3", "--n", "2", "--m", m)
    assert code == 64
    assert "--m must be at least 1" in err and "m > 1" not in err


@pytest.mark.parametrize("argv", [
    ["check-antidist", "--ensemble", "pbr4", "--seed", "-1"],
    ["check-lsam", "--ensemble", "su3", "--n", "2", "--seed", "-3"],
], ids=["check-antidist", "check-lsam"])
def test_negative_seed_is_a_usage_error_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kw):
        raise AssertionError("a decision ran")

    monkeypatch.setattr("antimark.cli.decide_antidist", no_work)
    monkeypatch.setattr("antimark.cli.check_lsam", no_work)
    code, err = run_err(capsys, *argv)
    assert code == 64
    assert "--seed must be at least 0" in err


def test_param_plumbing(capsys):
    code, out = run(capsys, "check-antidist", "--ensemble", "theta4",
                    "--param", "theta=0.9")
    assert code == 0
    assert run(capsys, "check-antidist", "--ensemble", "theta4")[0] == 64
    assert run(capsys, "check-antidist", "--ensemble", "theta4",
               "--param", "theta")[0] == 64
    assert run(capsys, "check-antidist", "--ensemble", "theta4",
               "--param", "theta=abc")[0] == 64
    for argv, name in ((["--ensemble", "duan4", "--param", "theta=1"], "theta"),
                       (["--ensemble", "theta4", "--param", "theta=0.9",
                         "--param", "phi=1"], "phi")):
        code, err = run_err(capsys, "check-antidist", *argv)
        assert code == 64
        assert repr(name) in err


def test_param_on_an_ensemble_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"name": "pair", "dims": [2], "states": [
        {"label": "a", "amplitudes": [[1, 0], [0, 0]]},
        {"label": "b", "amplitudes": [[0, 0], [1, 0]]}]}))
    assert run(capsys, "check-antidist", "--ensemble", str(path))[0] == 0
    code, err = run_err(capsys, "check-antidist", "--ensemble", str(path),
                        "--param", "theta=1")
    assert code == 64
    assert "'theta'" in err


def test_python_dash_m_runs_the_command_line():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "antimark", "catalog"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "trine3" in done.stdout


def test_unknown_ensemble_is_a_data_error(capsys):
    assert run(capsys, "check-antidist", "--ensemble", "nonesuch")[0] == 65


def test_malformed_ensemble_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(capsys, "check-antidist", "--ensemble", str(path))[0] == 65


def test_build_then_verify_round_trip(capsys, tmp_path):
    out_file = tmp_path / "bell.protocol.json"
    code, out = run(capsys, "build-protocol", "--ensemble", "bell4",
                    "--method", "pairwise-walgate", "--out", str(out_file))
    assert code == 0
    assert out_file.exists()
    code, out = run(capsys, "verify-protocol", "--ensemble", "bell4",
                    "--protocol", str(out_file))
    assert code == 0
    assert "pass" in out


def test_verify_protocol_against_wrong_ensemble(capsys, tmp_path):
    out_file = tmp_path / "bell.protocol.json"
    run(capsys, "build-protocol", "--ensemble", "bell4",
        "--method", "pairwise-walgate", "--out", str(out_file))
    assert run(capsys, "verify-protocol", "--ensemble", "bennett9",
               "--protocol", str(out_file))[0] == 65


def test_verify_protocol_conclusive_path(capsys, tmp_path):
    e = nl1()
    proto = LoccProtocol("one_round_product", e.layout,
                         party_povms=nl1_identification_povms())
    path = tmp_path / "nl1.protocol.json"
    path.write_text(serialize_protocol(proto))
    code, out = run(capsys, "verify-protocol", "--ensemble", "nl1",
                    "--protocol", str(path), "--conclusive")
    assert code == 0
    assert "pass" in out


def test_verify_protocol_conclusive_needs_one_round(capsys, tmp_path):
    out_file = tmp_path / "bell.protocol.json"
    run(capsys, "build-protocol", "--ensemble", "bell4",
        "--method", "pairwise-walgate", "--out", str(out_file))
    assert run(capsys, "verify-protocol", "--ensemble", "bell4",
               "--protocol", str(out_file), "--conclusive")[0] == 65


def test_verify_protocol_rejects_a_non_finite_element(capsys, tmp_path):
    """Bob's computational readout with one extra all-NaN element: the file
    is malformed input, not a passing protocol."""
    proto = bell_exclusion_protocol()
    bob = proto.party_povms[1] + [np.full((2, 2), np.nan, dtype=np.complex128)]
    bad = LoccProtocol(proto.kind, proto.layout, party_povms=[proto.party_povms[0], bob],
                       exclusion_map=proto.exclusion_map)
    path = tmp_path / "nan.protocol.json"
    path.write_text(serialize_protocol(bad))
    code, err = run_err(capsys, "verify-protocol", "--ensemble", "bell4",
                        "--protocol", str(path))
    assert code == 65
    assert "party 1 POVM: element 2 has non-finite entries" in err


def test_verify_protocol_missing_file(capsys):
    assert run(capsys, "verify-protocol", "--ensemble", "bell4",
               "--protocol", "/nonexistent/p.json")[0] == 65


def test_sweep_reports_boundaries(capsys):
    code, out = run(capsys, "sweep", "--family", "theta4",
                    "--min", "0.45", "--max", "1.05", "--steps", "13")
    assert code == 0
    assert "boundary near" in out
    assert "gap region" in out


def test_sweep_nl2_json_boundaries(capsys):
    code, out = run(capsys, "sweep", "--family", "nl2", "--min", "0.1",
                    "--max", "3.0", "--steps", "60", "--json")
    assert code == 0
    doc = json.loads(out)
    edge = math.acos(1.0 / math.sqrt(3.0))
    for target in (math.pi / 4.0, edge, math.pi - edge, 3.0 * math.pi / 4.0):
        assert min(abs(b - target) for b in doc["boundaries"]) <= 1e-6, target
    res = sweep_theta("nl2", [float(t) for t in np.linspace(0.1, 3.0, 60)])
    assert doc["boundaries"] == res.boundaries
    assert doc["regions"] == [list(r) for r in res.regions]


def test_sweep_nl2_runs_next_to_the_open_domain_edge(capsys):
    code, out = run(capsys, "sweep", "--family", "nl2", "--min", "1e-12",
                    "--max", "0.5", "--steps", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert [(pt["global"], pt["local"]) for pt in doc["points"]][0] == (False, False)


def test_sweep_usage_errors(capsys):
    assert run(capsys, "sweep", "--family", "theta4", "--min", "0.5",
               "--max", "0.9", "--steps", "1")[0] == 64
    assert run(capsys, "sweep", "--family", "theta4", "--min", "0.9",
               "--max", "0.5", "--steps", "5")[0] == 64


@pytest.mark.parametrize("flag,value", [("--min", "nan"), ("--min", "-inf"),
                                        ("--max", "inf"), ("--max", "nan")])
def test_sweep_non_finite_bounds_are_a_usage_error_naming_the_flag(capsys, flag, value):
    bounds = {"--min": "0.5", "--max": "0.9", flag: value}
    code, err = run_err(capsys, "sweep", "--family", "theta4", "--steps", "5",
                        *(f"{f}={v}" for f, v in bounds.items()))
    assert code == 64
    assert f"{flag} must be a finite number" in err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_check_lsam_length_below_one_is_a_usage_error(capsys, n):
    code, err = run_err(capsys, "check-lsam", "--ensemble", "su3", "--n", n)
    assert code == 64
    assert "--n must be at least 1" in err


def test_unknown_command_exits_via_argparse(capsys):
    for argv in (["frobnicate"], ["catalog", "--seed", "1"]):
        assert main(argv) == 64


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["check-antidist", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


def test_tolerance_sources(capsys, monkeypatch):
    monkeypatch.setenv("ANTIMARK_TOL", "1e-6")
    code, out = run(capsys, "check-antidist", "--ensemble", "duan4", "--json")
    assert code == 0
    assert json.loads(out)["tol"] == 1e-6
    monkeypatch.setenv("ANTIMARK_TOL", "bogus")
    assert run(capsys, "check-antidist", "--ensemble", "duan4")[0] == 65
    code, out = run(capsys, "check-antidist", "--ensemble", "duan4",
                    "--tol", "1e-7", "--json")
    assert code == 0
    assert json.loads(out)["tol"] == 1e-7


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_tolerance_flag_must_be_finite_and_positive(capsys, value):
    code, out = run(capsys, "check-antidist", "--ensemble", "trine3",
                    "--tol", value, "--json")
    assert code == 64
    assert out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-9", "0"])
def test_tolerance_variable_must_be_finite_and_positive(capsys, monkeypatch, value):
    monkeypatch.setenv("ANTIMARK_TOL", value)
    code, out = run(capsys, "check-antidist", "--ensemble", "duan4", "--json")
    assert code == 65
    assert out == ""
