"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_JOBS = 8
SMOKE_SEED = 3


def _smoke(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SMOKE_SEED), "--seconds", "0.1", "--trace", str(trace),
           "--jobs", str(SMOKE_JOBS)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_smoke_jobs_skip_the_hard_stratum():
    # keeps the smoke runs short; pick another SMOKE_SEED if this fails
    smoke = run.make_jobs("decide-ladder", SMOKE_SEED, SMOKE_JOBS)
    assert all(job.stratum != "hard" for job in smoke)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload):
    lines, result = _smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= SMOKE_JOBS
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for name, unit in [*expected.items(), ("failed_share", "ratio")]:
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in lines), (name, text)

    traced_lines, traced = _smoke(workload, 1)
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected
    # untraced and traced passes gave one digest, equal to the untraced run's
    digest = [line.split()[1:] for line in lines if line.strip().startswith("digest")]
    traced_digest = [line.split()[1:] for line in traced_lines if line.strip().startswith("digest")]
    assert traced["correct"] is True and digest == traced_digest and len(digest[0]) == 1


def test_same_seed_gives_the_same_digest():
    digests = []
    for _ in range(2):
        lines, _ = _smoke("lift-canonical", 0)
        digests.append([line for line in lines if line.strip().startswith("digest")])
    assert digests[0] == digests[1]


def test_wrong_expected_verdict_counts_as_failed():
    job_list = [j for j in run.make_jobs("decide-ladder", SMOKE_SEED, SMOKE_JOBS)
                if j.command == "decide"][:3]
    flipped = job_list[0]
    flipped.expect = dict(flipped.expect, star_clean={
        "star-clean": "not-star-clean", "not-star-clean": "star-clean"}[flipped.expect["star_clean"]])
    result = run.run_pass(job_list, check.Checker())
    failed = [bool(o.failures) for o in result["outcomes"]]
    assert failed == [True, False, False]
    assert result["outcomes"][0].wrong and not result["outcomes"][0].proved


def test_rounds_run_every_job_and_alternate_the_long_ones():
    for workload in jobs.WORKLOADS:
        job_list = run.make_jobs(workload, SMOKE_SEED)
        rounds = [run.round_jobs(job_list, r) for r in range(2)]
        assert {j.index for r in rounds for j in r} == {j.index for j in job_list}
    ladder = run.make_jobs("decide-ladder", SMOKE_SEED)
    hard = [[j.option("--group") for j in run.round_jobs(ladder, r)
             if j.stratum == "hard" and j.command == "decide"] for r in range(2)]
    assert hard == [["Q8xC73"], ["Q8xC89"]]


def test_digest_flags_a_report_that_changes_between_runs():
    job_list = run.make_jobs("decide-ladder", SMOKE_SEED, 2)
    same = {"jobs": [0, 1], "reports": ["a", "b"]}
    assert run.digest(job_list, [same, same])[1] == []
    changed = {"jobs": [0, 1], "reports": ["a", "c"]}
    assert run.digest(job_list, [same, changed])[1] == [1]


def test_time_metrics():
    runs = {0: [10.0, 30.0], 1: [5.0], 2: [1.0, 2.0, 3.0]}
    m = run.time_metrics(runs)
    assert m["wall_s"] == pytest.approx((20.0 + 5.0 + 2.0) / 1000)
    assert m["job_ms.p50"] == 4.0 and m["samples"] == 6
    assert (m["job_ms.tail"], m["tail_percentile"]) == (30.0, 100.0)
    many = {i: [float(i)] for i in range(100)}
    assert run.time_metrics(many)["job_ms.tail"] == 89.0


def test_sampled_scan_that_exits_0_counts_as_failed():
    job = next(j for j in jobs.crossval_sweep(1) if "--budget" in j.argv)
    report = {"result": {"property": "clean", "result": True, "mode": "sampled", "tested": 10,
                         "structure_size": 1, "structure_full": True, "notes": []}}
    outcome = check.Checker().check(job, 0, report)
    assert outcome.failures and not outcome.wrong and not outcome.proved


def test_forged_three_squares_certificate_fails():
    job = jobs.Job(0, "test", ("decide", "--group", "Q8", "--ring", "F5"),
                   jobs._verdict_expectation("decide", "Q8", "F5"))
    checker = check.Checker()
    _, code, report, _ = run.run_job(job)
    assert checker.check(job, code, report).proved
    cert = next(c for c in report["certificates"] if c["kind"] == "three-squares")
    cert["triple"] = ["1", "1", "1"]
    assert checker.check(job, code, report).failures


def test_projection_lists_are_checked_for_completeness():
    carrier = check.Carrier.from_specs("Q8", "F5")
    from starclean import canonical

    listed = [p.to_dict() for p in canonical.f_projections(carrier.slc, carrier.R)]
    assert len(listed) > 1
    assert check._f_projections_problem(carrier, listed) == ""
    assert "incomplete" in check._f_projections_problem(carrier, listed[1:])


def test_unit_test_agrees_with_the_program():
    from starclean import groupring

    import numpy as np

    for group, ring in [("Q8", "F3"), ("Q8", "Z/9"), ("Q8", "F3^2"), ("D2[k=2]", "F5")]:
        carrier = check.Carrier.from_specs(group, ring)
        RG = groupring.GroupRing(carrier.G, carrier.R)
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = RG.random_element(rng)
            sparse = {g: c for g, c in enumerate(alpha.coeffs) if not carrier.R.is_zero(c)}
            assert carrier.is_unit(sparse) == groupring.is_unit(alpha)


def test_expected_verdicts():
    assert jobs.expected_star_clean("Q8xC7", "Q") == ("star-clean", jobs.PAPER)
    assert jobs.expected_star_clean("Q8xC73", "Q") == ("star-clean", jobs.BEYOND)
    assert jobs.expected_star_clean("Q8xC89", "Q") == ("star-clean", jobs.BEYOND)
    assert jobs.expected_star_clean("Q8xC3", "Q")[0] == "not-star-clean"
    assert jobs.expected_star_clean("Q8xC4", "Q")[0] == "not-star-clean"
    assert jobs.expected_star_clean("Q8", "F3")[0] == "not-star-clean"
    assert jobs.expected_star_clean("Q8", "Q(zeta3)")[0] == "not-star-clean"
    assert jobs.expected_star_clean("Q8xC7", "Q(zeta7)") == ("star-clean", jobs.PAPER)
    assert jobs.expected_star_clean("Q8xC7", "Q(zeta12)")[0] == "not-star-clean"
    assert jobs.expected_star_clean("D3[k=1,k2=1]", "Q")[0] == "not-star-clean"
    assert jobs.expected_witness("Q8xC73", "Q") == "no-witness"
    assert jobs.expected_witness("Q8", "Z/9") == "witness-found"


def test_order_of_two_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in range(3, 400, 2):
        assert jobs._ord2(m) == sympy.n_order(2, m)


def test_tracer_wraps_every_binding_and_restores_them():
    import starclean  # noqa: F401

    originals = {}
    for name, module_name, attr in tracer.TARGETS:
        module = sys.modules[module_name]
        if "." in attr:
            cls, meth = attr.split(".")
            originals[name] = getattr(module, cls).__dict__[meth]
        else:
            originals[name] = getattr(module, attr)
    modules = [m for n, m in sys.modules.items() if n == "starclean" or n.startswith("starclean.")]

    def bindings():
        return {(m.__name__, k) for m in modules for k, v in vars(m).items()
                if any(v is o for o in originals.values())}

    before = bindings()
    assert {("starclean.witness", "is_unit"), ("starclean.witness", "unit_inverse")} <= before
    t = tracer.Tracer()
    t.install()
    try:
        assert bindings() == set()
        from starclean.groupring import GroupRingElement

        assert GroupRingElement.__dict__["__mul__"] is not originals["groupring.mul"]
    finally:
        t.uninstall()
    assert bindings() == before
