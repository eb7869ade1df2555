"""Self-tests of the benchmark: the gate, the tracer's accounting, each
workload at minimal size, the comparison rule and the contract file.

    python3 -m pytest -q bench
"""

import dataclasses
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, BENCH_DIR]

from run import BLAS_THREAD_VARS  # noqa: E402

for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

import compare  # noqa: E402
import gate  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from antimark.exclusion import Povm, Verdict  # noqa: E402
from tracer import layer_names  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

SELF_TIME_TOL = 0.01   # module self times cover a catalog pass to within 1 %


def catalog_instance(key):
    w = workloads.build("catalog", 0)
    return next(inst for inst in w.variants[0] if inst.key == key)


def test_gate_accepts_the_package_output():
    inst = catalog_instance("duan4")
    assert gate.check("catalog", inst, inst.run()) == ([], True)


def test_gate_rejects_swapped_labels():
    inst = catalog_instance("duan4")
    v = inst.run()
    cert = v.certificate
    labels = list(cert.labels)
    j = next(i for i, lab in enumerate(labels) if lab != labels[0])
    labels[0], labels[j] = labels[j], labels[0]
    tampered = dataclasses.replace(v, certificate=Povm(cert.layout, cert.elements, labels))
    problems, _ = gate.check("catalog", inst, tampered)
    assert problems
    e = inst.subject
    assert gate.exclusion_problems(e.states, e.labels, cert.elements, labels)


@pytest.mark.parametrize("decision, method", [("NO", "caves"), ("UNKNOWN", "exhausted"),
                                              ("YES", "search")])
def test_gate_rejects_changed_verdicts(decision, method):
    inst = catalog_instance("duan4")
    v = dataclasses.replace(inst.run(), decision=decision, method=method)
    problems, decided = gate.check("catalog", inst, v)
    assert problems and not (decision == "NO" and decided)


def test_gate_rejects_a_wrong_count():
    w = workloads.build("locc-lsam", 0)
    inst = next(i for i in w.variants[0] if i.key == "pbr_readout")
    proto, count = inst.run()
    assert gate.check("locc-lsam", inst, (proto, count)) == ([], True)
    problems, _ = gate.check("locc-lsam", inst, (proto, count - 1))
    assert problems


def test_unknown_may_become_a_certified_no():
    ref = {"decision": "UNKNOWN", "method": "exhausted"}
    e = catalog_instance("weak3").subject
    assert gate.check_verdict(ref, Verdict("NO", "caves"), e) == ([], True)
    problems, decided = gate.check_verdict(ref, Verdict("NO", "dual"), e)
    assert problems and not decided


def test_module_self_times_cover_a_catalog_pass():
    """A catalog call is entirely ``decide_antidist``, so the self times of the
    module spans, without the harness's own span, add up to the traced pass
    time; a function the tracer misses leaves its time to the harness."""
    res = measure.traced_run("catalog", 1, 0.0, minimal=True)
    assert res.tally.failed == 0, res.tally.problems
    d = res.detail
    assert abs(d["module_self_pass_s"] - d["traced_pass_s"]) <= SELF_TIME_TOL * d["traced_pass_s"]
    assert d["bench_self_pass_s"] <= SELF_TIME_TOL * d["traced_pass_s"]
    for name in ("exclusion.decide_antidist", "exclusion.caves_criterion",
                 "exclusion.povm_from_caves_triple", "exclusion.compose_union",
                 "exclusion.verify_strong"):
        assert res.metrics[f"{name}.calls"][0] > 0, name
        assert res.metrics[f"{name}.self_s"][0] > 0, name
    assert res.metrics["qcore.min_eigenvalue.calls"][0] > 0


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_runs_at_minimal_size(name):
    res = measure.timed_run(name, 7, 0.0, SRC, minimal=True)
    assert res.tally.failed == 0, res.tally.problems
    assert {m["name"] for m in SPEC["end_to_end"]} | {"failed_frac"} == set(res.metrics)
    assert all(value > 0 for key, (value, _) in res.metrics.items() if key != "failed_frac")
    traced = measure.traced_run(name, 7, 0.0, minimal=True)
    assert traced.tally.failed == 0, traced.tally.problems
    assert list(traced.metrics) == [m["name"] for m in SPEC["per_layer"]]


def test_same_seed_same_inputs():
    a = workloads.build("random-quartets", 3, minimal=True)
    b = workloads.build("random-quartets", 3, minimal=True)
    c = workloads.build("random-quartets", 4, minimal=True)
    states = [[inst.subject.states for inst in w.pass_instances(1)] for w in (a, b, c)]
    assert all((x == y).all() for sa, sb in zip(states[0], states[1]) for x, y in zip(sa, sb))
    assert any((x != y).any() for sa, sc in zip(states[0], states[2]) for x, y in zip(sa, sc))


def test_contract_file_matches_the_benchmark():
    assert [m["name"] for m in SPEC["per_layer"]] == layer_names()
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_run_refuses_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                           "--src", str(tmp_path), "--workload", "catalog", "--seed", "1",
                           "--seconds", "1"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_rule():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.1, 10.0, 9.9, 10.2]
    faster = [9.0, 9.1, 8.9, 9.2, 9.0, 8.8, 9.1, 9.0, 8.9, 9.1]
    assert compare.judge(parent, faster, "lower", 0.1) == ("gain", 10)
    slower = [x * 1.2 for x in parent]
    assert compare.judge(parent, slower, "lower", 0.1)[0] == "regression"
    assert compare.judge(parent, parent[::-1], "lower", 0.1)[0] == "no regression"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.judge(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
