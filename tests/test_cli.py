import ctypes
import json
import os
import subprocess
import sys

import pytest

from starclean import cli, groups
from starclean.decide import Budget
from starclean.errors import ParseError
from conftest import is_slc


# ---------------------------------------------------------------- parsing

def test_parse_q8():
    s = cli.parse_group_spec("Q8")
    assert isinstance(s, groups.SLCStructure)
    assert s.ptype is groups.Presentation.D2 and s.k == 1
    assert s.group.order == 8


def test_parse_q8xc7():
    s = cli.parse_group_spec("Q8xC7")
    assert s.group.order == 56
    assert s.abelian == (7,)


def test_parse_d5_minimal():
    s = cli.parse_group_spec("D5[k=1,k2=1,k3=1]")
    assert s.group.order == 32
    assert is_slc(s.group)


def test_parse_abelian_product():
    g = cli.parse_group_spec("C2xC4")
    assert isinstance(g, groups.FiniteGroup)
    assert g.order == 8


def test_parse_json_config():
    s = cli.parse_group_spec('{"type": "D2", "k": 1, "abelian": [3]}')
    assert isinstance(s, groups.SLCStructure)
    assert s.group.order == 24


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        cli.parse_group_spec("Q8xJ5")
    with pytest.raises(ParseError):
        cli.parse_group_spec("Q8xQ8")
    with pytest.raises(ParseError):
        cli.parse_group_spec("D3[k=1,k4=2]")


# ---------------------------------------------------------------- exit codes

def test_decide_q8xc7_exit_zero(capsys):
    code = cli.main(["decide", "--group", "Q8xC7", "--ring", "Q", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"]["status"] == "star-clean"
    assert any(r["citation"] == "CorollaryA.2" for r in out["verdict"]["reasons"])
    # the paper settles 7 = 7 mod 8: no beyond-paper reason
    assert all(r["citation"] != "FeinGordonSmith1971" for r in out["verdict"]["reasons"])


def test_decide_q8xc73_by_local_degree(capsys):
    # 73 = 1 mod 8, where the paper's level table stops at "2 or 4"
    code = cli.main(["decide", "--group", "Q8xC73", "--ring", "Q", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"]["status"] == "star-clean"
    local = [r for r in out["verdict"]["reasons"] if r["citation"] == "FeinGordonSmith1971"]
    assert local == [
        {
            "criterion": "equation-unsolvable-local-degree",
            "citation": "FeinGordonSmith1971",
            "data": {"d": 73, "d_odd": 73, "ord_2": 9, "basis": "beyond-paper:local-degree"},
        }
    ]


def test_decide_q8xc3_exit_one(capsys):
    code = cli.main(["decide", "--group", "Q8xC3", "--ring", "Q", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert any(r["citation"] == "CorollaryA.1" for r in out["verdict"]["reasons"])


def test_decide_abelian_out_of_scope_exit_two(capsys):
    code = cli.main(["decide", "--group", "C4", "--ring", "F3", "--json"])
    assert code == 2


def test_brute_q8_f3_exit_one(capsys):
    code = cli.main(
        ["brute", "--group", "Q8", "--ring", "F3", "--involution", "canonical", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["result"]["result"] is False
    assert out["result"]["counterexample"]


def test_brute_clean_property(capsys):
    code = cli.main(
        ["brute", "--group", "Q8", "--ring", "F3", "--property", "clean", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["result"]["result"] is True
    assert out["involution"] is None  # a clean scan uses no involution


def test_sampled_brute_scan_is_not_a_proof():
    job = cli.JobSpec(
        command="brute",
        group_spec="Q8",
        ring_spec="F3",
        prop="clean",
        budget=Budget(full_scan_limit=1, sample_count=50),
    )
    code, report = cli.run(job)
    assert code == 2
    assert report["result"]["mode"] == "sampled"
    assert report["result"]["result"] is None


def test_sampled_element_stream_on_group_smaller_than_support_stratum():
    # |G| = 2: the small-support stratum must not draw more positions than |G|
    job = cli.JobSpec(
        command="brute",
        group_spec="C2",
        ring_spec="F7",
        involution="classical",
        budget=Budget(full_scan_limit=10),
    )
    code, report = cli.run(job)
    assert code == 2
    assert report["result"]["mode"] == "sampled"
    assert report["result"]["result"] is None


def test_budget_zero_samples(capsys):
    code = cli.main(
        ["brute", "--group", "Q8", "--ring", "F3", "--property", "clean", "--budget", "0", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["result"]["mode"] == "sampled" and out["result"]["result"] is None


@pytest.mark.parametrize("flag", ["--budget", "--seed"])
def test_negative_budget_or_seed_exit_three(capsys, flag):
    with pytest.raises(SystemExit) as err:
        cli.main(["brute", "--group", "Q8", "--ring", "F3", flag, "-1"])
    assert err.value.code == 3
    assert "non-negative integer" in capsys.readouterr().err


def test_brute_clean_needs_no_involution():
    # C3 has no SLC presentation, so the default canonical involution does not exist
    job = cli.JobSpec(command="brute", group_spec="C3", ring_spec="F5", prop="clean")
    code, report = cli.run(job)
    assert code == 0
    assert report["involution"] is None
    assert report["result"]["mode"] == "full"
    assert report["result"]["result"] is True


def test_levels_command(capsys):
    code = cli.main(["levels", "--prime", "23", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["label"] == "Level4"  # 23 = 7 mod 8


def test_levels_17(capsys):
    cli.main(["levels", "--prime", "17", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert out["label"] == "TwoOrFour"


def test_levels_takes_no_seed(capsys):
    # levels draws nothing: --seed is a parse error, and the report echoes none
    with pytest.raises(SystemExit) as exc:
        cli.main(["levels", "--prime", "23", "--seed", "5"])
    assert exc.value.code == 3
    capsys.readouterr()
    assert cli.main(["levels", "--prime", "23", "--json"]) == 0
    assert "seed" not in json.loads(capsys.readouterr().out)


def test_witness_command(capsys):
    code = cli.main(["witness", "--group", "Q8xC4", "--ring", "F3", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["witness"]["case"] == "order-4-element"
    assert out["witness"]["validation"]["condition1"] == "0"


def test_witness_none_over_q(capsys):
    code = cli.main(["witness", "--group", "Q8", "--ring", "Q", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["witness"] is None


def test_witness_none_over_q_zeta73(capsys):
    code = cli.main(["witness", "--group", "Q8", "--ring", "Q(zeta73)", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["witness"] is None
    assert out["outcome"] == "no-witness; necessary conditions hold"


def test_canonical_command(capsys):
    element = json.dumps({"1": "1", "s": "2"})  # 1 - s over F3
    code = cli.main(
        [
            "canonical",
            "--group",
            "Q8",
            "--ring",
            "F3",
            "--element",
            element,
            "--list-projections",
            "--json",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["canonical"]["symmetric"] is True
    assert out["canonical"]["roundtrip_ok"] is True
    assert len(out["canonical"]["f_projections"]) == 2


def test_crossval_q8_f3(capsys):
    code = cli.main(["crossval", "--group", "Q8", "--ring", "F3", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["agreement"] == "agree"
    assert out["brute"]["clean"]["result"] is True
    assert out["brute"]["star_clean"]["result"] is False


def test_crossval_abelian_theory_na(capsys):
    code = cli.main(
        ["crossval", "--group", "C2", "--ring", "F3", "--involution", "classical", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["agreement"] == "theory-not-applicable"


def test_lift_command(capsys):
    code = cli.main(
        ["lift", "--group", "C2", "--ring", "F3", "--seed", "3", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["validated"] is True
    assert out["lifted_group_order"] == 4


def test_explain_attaches_canonical_forms(capsys):
    code = cli.main(
        ["witness", "--group", "Q8", "--ring", "F3", "--explain", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert "canonical_forms" in out


@pytest.mark.parametrize(
    "command, ring", [("decide", "F3^2"), ("decide", "Q(zeta3)"), ("witness", "F7^2")]
)
def test_explain_reads_polynomial_coefficients(capsys, command, ring):
    code = cli.main([command, "--group", "Q8", "--ring", ring, "--explain", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    gamma = next(c["gamma"] for c in out["certificates"] if "gamma" in c)
    assert not all(v.isdigit() for v in gamma.values())
    # gamma lies in (RG)f, so its t = x row is its coefficient on x
    assert out["canonical_forms"]["gamma_f_part"]["t=x,a^0"] == {"1": gamma["x"]}


def test_canonical_element_over_extension_field(capsys):
    element = json.dumps({"x": "w", "x*s": "2*w"})  # w x (1 - s) over F3^2
    code = cli.main(
        ["canonical", "--group", "Q8", "--ring", "F3^2", "--element", element, "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["canonical"]["roundtrip_ok"] is True
    assert out["canonical"]["form"] == {"t=x,a^0": {"1": "w"}}


def test_canonical_element_with_json_numbers(capsys):
    element = json.dumps({"1": 1, "s": 2})  # 1 - s over F3, as JSON numbers
    code = cli.main(["canonical", "--group", "Q8", "--ring", "F3", "--element", element, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["canonical"]["roundtrip_ok"] is True


# ---------------------------------------------------------------- error exits

def test_parse_error_exit_three(capsys):
    assert cli.main(["decide", "--group", "Nope", "--ring", "Q"]) == 3


def test_capacity_error_exit_four(capsys):
    assert cli.main(["decide", "--group", "C8000", "--ring", "Q"]) == 4


def test_bad_ring_exit_five(capsys):
    assert cli.main(["decide", "--group", "Q8", "--ring", "Z/4"]) == 5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["canonical", "--element", "null"], "--element must be a JSON object"),
        (["canonical", "--element", '"1"'], "--element must be a JSON object"),
        (["canonical", "--element", "[1]"], "--element must be a JSON object"),
        (["canonical", "--element", "{"], "--element is not valid JSON"),
        (["canonical", "--element", '{"q": "1"}'], "names no element of Q8: ['q']"),
        (["decide", "--group", '{"type":"D2","k":"1"}'], "k must be an integer, got '1'"),
        (["decide", "--group", '{"type":"D2","k2":1.5}'], "k2 must be an integer, got 1.5"),
        (["decide", "--group", '{"abelian": 3}'], "abelian must be a list of integers"),
        (["decide", "--group", '{"type":"D9"}'], "unknown presentation type 'D9'"),
        (["decide", "--group", "{"], "group spec is not valid JSON"),
    ],
    ids=[
        "element-null", "element-string", "element-list", "element-json", "element-name",
        "group-k-string", "group-k2-float", "group-abelian", "group-type", "group-json",
    ],
)
def test_malformed_json_input_exit_three(capsys, argv, message):
    """JSON the CLI cannot use is a ParseError naming the problem (exit 3),
    never a traceback or the exit code of a verdict."""
    if "--group" not in argv:
        argv = argv[:1] + ["--group", "Q8"] + argv[1:]
    assert cli.main(argv + ["--ring", "F3"]) == 3
    assert message in capsys.readouterr().err


def test_projections_over_an_infinite_ring_exit_four(capsys):
    assert cli.main(["canonical", "--group", "Q8", "--ring", "Q", "--list-projections"]) == 4
    assert "Q is infinite" in capsys.readouterr().err


def test_canonical_involution_on_abelian_exit_five(capsys):
    assert cli.main(["brute", "--group", "C4", "--ring", "F3"]) == 5


def test_usage_error_exit_three(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["decide", "--group", "Q8"])  # --ring missing
    assert err.value.code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["lift", "--group", "C2", "--ring", "F3", "--budget", "5"],
        ["decide", "--group", "Q8", "--ring", "F3", "--budget", "1"],
        ["canonical", "--group", "Q8", "--ring", "F3", "--explain"],
        ["brute", "--group", "Q8", "--ring", "F3", "--explain"],
    ],
    ids=["lift-budget", "decide-budget", "canonical-explain", "brute-explain"],
)
def test_flag_the_command_does_not_read_exit_three(capsys, argv):
    # --budget belongs to the scans (brute, crossval), --explain to the
    # commands that cite a gamma (decide, witness, crossval)
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 3


# ---------------------------------------------------------------- determinism

def _strip_timings(report: dict) -> dict:
    report = dict(report)
    report.pop("timings", None)
    return report


def test_json_reports_deterministic_and_roundtrip(capsys):
    cli.main(["crossval", "--group", "Q8", "--ring", "F3", "--seed", "7", "--json"])
    first = capsys.readouterr().out
    cli.main(["crossval", "--group", "Q8", "--ring", "F3", "--seed", "7", "--json"])
    second = capsys.readouterr().out
    a, b = json.loads(first), json.loads(second)
    assert _strip_timings(a) == _strip_timings(b)
    # round-trip: serialize/parse preserves the verdict fields
    again = json.loads(json.dumps(a, sort_keys=True))
    assert again["theory"] == a["theory"]
    assert again["agreement"] == a["agreement"]


# ---------------------------------------------------------------- memory

_BLOCK_CYCLES = """
import resource, sys
import numpy as np
from starclean import cli
cli.main(["levels", "--prime", "7"])
def cycle():
    blocks = [np.ones(1 << 19) for _ in range(3)]  # three 4 MB scan-sized blocks
    del blocks
cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, file=sys.stderr)
"""


def test_freed_blocks_are_reused_without_page_faults():
    """After `main`, dropping and rebuilding multi-MB numpy blocks faults no
    pages in again (glibc only: elsewhere malloc keeps its defaults)."""
    pytest.importorskip("resource")
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        pytest.skip("the C library has no mallopt")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run([sys.executable, "-c", _BLOCK_CYCLES], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    # 15 blocks of 4 MB would fault about 15,000 pages if returned each time
    assert int(proc.stderr.strip().splitlines()[-1]) < 200
