"""Toy-size self-test of the benchmark: every workload runs with tiny
inputs, all verdicts hold, the work counters repeat exactly for a seed, and
the reported metrics match BENCHMARK.json.  No time is asserted.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the layers each workload must exercise
OWN_COUNTERS = {
    "catalogue": ["poset.enumerate_posets.items", "primon.enumerate_prime_pairs.items", "constructions.assemble.calls"],
    "monoids": [
        "primon.check_refinement.equalities",
        "primon.arith.ops",
        "primon.CongruenceOracle.queries",
        "graphmon.check_Er_equals_chain.word_pairs",
    ],
    "surgery": ["constructions.reconstruct_down.unfolded_nodes", "constructions.assemble.primes", "primon.monoid_iso.calls"],
    "algebra": ["toeplitz.check_relation.samples", "leavitt.mul.terms_out", "toeplitz.invert_sigma.coeff_terms"],
}


def traced(workload, seed):
    line, report = run.measure(workload, seed, 0, trace=1, toy=True)
    return line, report, {k: v["value"] for k, v in line["metrics"].items() if v["unit"] == "count"}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_toy(workload):
    line, report, counts = traced(workload, 3)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert line["metrics"]["bench.error_rate"]["value"] == 0
    for name in OWN_COUNTERS[workload]:
        assert counts[name] > 0, name
    assert {(k, v["unit"]) for k, v in line["metrics"].items()} == {
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    }
    again, report2, counts2 = traced(workload, 3)
    assert counts2 == counts
    assert report2["input_fingerprint"] == report["input_fingerprint"]
    other = run.measure(workload, 4, 0, trace=0, toy=True)[1]["input_fingerprint"]
    if workload == "catalogue":  # deterministic: the seed is unused
        assert other == report["input_fingerprint"]
    else:
        assert other != report["input_fingerprint"]


def test_untraced_metrics_match_spec():
    line, _ = run.measure("monoids", 1, 0, trace=0, toy=True)
    assert line["correct"]
    assert {(k, v["unit"]) for k, v in line["metrics"].items()} == {
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_region_scales_by_the_samples_around_it():
    m = speed.Meter()
    n = speed.REF_NOMINAL_S
    k = speed.NEIGHBOURS
    m.at.extend(float(t) for t in range(2 * k + 3))
    m.samples.extend([4 * n] + [n] * k + [2 * n] + [n] * k + [4 * n])
    # k samples before, the one inside and k after
    raw, ref = m.region(k + 0.5, k + 1.5)
    assert raw == pytest.approx(1.0)
    assert ref == pytest.approx((2 * k + 0.5) / (2 * k + 1))


def test_posets_file_is_the_catalogue():
    pa = run.import_package()
    want = {
        str(n): [
            sorted([int(q[1:]), int(p[1:])] for p in poset.elements for q in poset.strict[p])
            for poset in pa.enumerate_posets(n)
        ]
        for n in (3, 4, 5)
    }
    assert json.loads(workloads.POSETS_FILE.read_text()) == want


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "monoids", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
