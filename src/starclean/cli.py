"""Command-line front end.

Group specs are `x`-separated atoms: ``Q8``, ``Cn``, ``Di[k=..,k2=..,k3=..]``
(or a JSON object ``{"type": "D2", "k": 1, "abelian": [3]}``); ring specs
are ``Z/n``, ``Fp``, ``Fp^k``, ``Q``, ``Q(zetad)``.  Exit codes encode the
verdict: 0 star-clean/true, 1 not-star-clean/false, 2 unknown, >2 errors.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import re
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import canonical as canonical_mod
from . import coeff, decide, groupring, groups, witness as witness_mod
from .decide import Budget, Status
from .errors import (
    BudgetError,
    CapacityError,
    DiscrepancyError,
    NonUnitError,
    ParseError,
    PreconditionError,
)

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_ATOM_RE = re.compile(r"^(Q8|C(?P<cn>\d+)|D(?P<dt>[1-5])\[(?P<params>[^\]]*)\])$")


@dataclass
class JobSpec:
    command: str
    group_spec: Optional[str] = None
    ring_spec: Optional[str] = None
    involution: str = "canonical"
    budget: Budget = decide.DEFAULT_BUDGET
    output_json: bool = False
    seed: int = 0
    explain: bool = False
    prime: Optional[int] = None
    prop: str = "star-clean"
    element: Optional[str] = None
    list_projections: bool = False
    include_clean: Optional[bool] = None


def _json_object(text: str, what: str) -> dict:
    """The JSON object `text`; ParseError for invalid JSON or another value."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object, got {text!r}")
    return value


def parse_group_spec(text: str) -> groups.FiniteGroup | groups.SLCStructure:
    """Parse a group spec string (compact grammar or JSON object)."""
    text = text.strip()
    if text.startswith("{"):
        cfg = _json_object(text, "group spec")
        k, k2, k3, abelian = cfg.get("k", 1), cfg.get("k2"), cfg.get("k3"), cfg.get("abelian", [])
        if "type" in cfg and cfg["type"] not in [p.value for p in groups.Presentation]:
            raise ParseError(f"unknown presentation type {cfg['type']!r}")
        if not isinstance(abelian, list):
            raise ParseError(f"abelian must be a list of integers, got {abelian!r}")
        for key, value in [("k", k), ("k2", k2), ("k3", k3), *(("abelian", f) for f in abelian)]:
            if type(value) is not int and (value is not None or key not in ("k2", "k3")):
                raise ParseError(f"{key} must be an integer, got {value!r}")
        if "type" in cfg:
            return groups.build_slc(groups.Presentation(cfg["type"]), k, k2, k3, tuple(abelian))
        return groups.build_abelian(tuple(abelian))
    d_atom = None
    abelian: list[int] = []
    pos = 0
    for atom in text.split("x"):
        m = _ATOM_RE.match(atom.strip())
        if not m:
            raise ParseError(f"unrecognized group atom {atom!r}", position=pos)
        if m.group("cn"):
            abelian.append(int(m.group("cn")))
        else:
            if d_atom is not None:
                raise ParseError("at most one non-abelian atom allowed", position=pos)
            if m.group("dt"):
                params = {}
                raw = m.group("params").strip()
                if raw:
                    for part in raw.split(","):
                        key, _, val = part.partition("=")
                        if key.strip() not in ("k", "k2", "k3") or not val.strip().isdigit():
                            raise ParseError(f"bad parameter {part!r}", position=pos)
                        params[key.strip()] = int(val)
                if "k" not in params:
                    raise ParseError("presentation needs k=...", position=pos)
                d_atom = (groups.Presentation(f"D{m.group('dt')}"), params)
            else:
                d_atom = (groups.Presentation.D2, {"k": 1})
        pos += len(atom) + 1
    if d_atom is None:
        return groups.build_abelian(abelian)
    ptype, params = d_atom
    return groups.build_slc(
        ptype, params["k"], params.get("k2"), params.get("k3"), tuple(abelian)
    )


def _status_exit(status: Status) -> int:
    return {Status.STAR_CLEAN: 0, Status.NOT_STAR_CLEAN: 1, Status.UNKNOWN: 2}[status]


def _result_exit(result: Optional[bool]) -> int:
    """Exit code of a brute result: None (not certified) is 2."""
    return {True: 0, False: 1, None: 2}[result]


def _resolve_sigma(spec, gobj, name: str) -> groups.InvolutionMap:
    if name == "classical":
        G = gobj.group if isinstance(gobj, groups.SLCStructure) else gobj
        return groups.classical_involution(G)
    if isinstance(gobj, groups.SLCStructure):
        return groups.canonical_involution(gobj)
    raise PreconditionError(
        "canonical involution needs an SLC presentation; use --involution classical"
    )


def _maybe_explain(report: dict, gobj, ring, job: JobSpec) -> None:
    """Attach canonical forms of the f-parts of any cited elements."""
    if not job.explain or not isinstance(gobj, groups.SLCStructure):
        return
    RG = groupring.GroupRing(gobj.group, ring)
    forms = {}
    for cert in report.get("certificates", []):
        if "gamma" in cert:
            gamma = RG.from_dict(
                {k: ring.parse(v) for k, v in cert["gamma"].items()}
            )
            forms["gamma_f_part"] = canonical_mod.fold_f(gobj, gamma).to_dict()
    if forms:
        report["canonical_forms"] = forms


def run(job: JobSpec) -> tuple[int, dict]:
    """Execute a job; returns (exit_code, report)."""
    t_start = time.perf_counter()
    if job.command == "levels":  # draws nothing, so takes and echoes no seed
        level = coeff.level_classify_prime(job.prime)
        label = {"2": "Level2", "4": "Level4", "2 or 4": "TwoOrFour"}[level.value]
        return 0, {"command": job.command, "prime": job.prime, "level": level.value, "label": label}

    report: dict = {"command": job.command, "seed": job.seed}
    budget = dataclasses.replace(job.budget, seed=job.seed)
    gobj = parse_group_spec(job.group_spec)
    ring = coeff.make_ring(job.ring_spec)
    G = gobj.group if isinstance(gobj, groups.SLCStructure) else gobj
    report["group"] = (
        gobj.spec_string() if isinstance(gobj, groups.SLCStructure) else job.group_spec
    )
    report["ring"] = ring.spec_string()

    if job.command == "decide":
        verdict = decide.decide_star_clean(gobj, ring)
        report["verdict"] = verdict.to_json()
        report["certificates"] = verdict.certificates
        _maybe_explain(report, gobj, ring, job)
        report["timings"] = {"total_s": round(time.perf_counter() - t_start, 6)}
        return _status_exit(verdict.status), report

    if job.command == "brute":
        if job.prop == "clean":
            rep = decide.brute_clean(G, ring, budget)
        else:
            sigma = _resolve_sigma(job, gobj, job.involution)
            rep = decide.brute_star_clean(G, sigma, ring, budget)
        # a clean scan resolves no involution
        report["involution"] = None if job.prop == "clean" else job.involution
        report["result"] = rep.to_json()
        report["timings"] = {"total_s": round(time.perf_counter() - t_start, 6)}
        return _result_exit(rep.result), report

    if job.command == "witness":
        if not isinstance(gobj, groups.SLCStructure):
            raise PreconditionError("witness generation needs an SLC presentation")
        w = witness_mod.generate_witness(gobj, ring)
        if w is None:
            report["witness"] = None
            report["outcome"] = "no-witness; necessary conditions hold"
            code = 0
        else:
            report["witness"] = w.to_dict()
            report["outcome"] = "witness-found"
            report["certificates"] = [w.certificate()]
            _maybe_explain(report, gobj, ring, job)
            code = 1
        report["timings"] = {"total_s": round(time.perf_counter() - t_start, 6)}
        return code, report

    if job.command == "lift":
        sigma = _resolve_sigma(job, gobj, job.involution)
        RG = groupring.GroupRing(G, ring)
        rng = np.random.default_rng(job.seed)
        dec = None
        for _ in range(64):
            alpha = RG.random_element(rng)
            dec = decide.element_star_clean(alpha, sigma, budget)
            if dec is not None:
                break
        if dec is None:
            raise PreconditionError("no *-clean decomposition found to lift")
        result = witness_mod.lift_c2(dec, RG, sigma)  # validates the lifted pair
        report.update(
            {
                "base_decomposition": dec.to_dict(),
                "lifted": result.decomposition.to_dict(),
                "lifted_group_order": result.group.order,
                "validated": True,
            }
        )
        report["timings"] = {"total_s": round(time.perf_counter() - t_start, 6)}
        return 0, report

    if job.command == "canonical":
        if not isinstance(gobj, groups.SLCStructure):
            raise PreconditionError("canonical forms need an SLC presentation")
        out: dict = {}
        if job.element:
            RG = groupring.GroupRing(G, ring)
            raw = _json_object(job.element, "--element")
            unknown = sorted(set(raw) - set(G.names))
            if unknown:
                raise ParseError(f"--element names no element of {report['group']}: {unknown}")
            alpha = RG.from_dict({k: ring.parse(str(v)) for k, v in raw.items()})
            form = canonical_mod.decompose_f(gobj, alpha)
            out["form"] = form.to_dict()
            out["symmetric"] = canonical_mod.is_symmetric_f(form)
            out["roundtrip_ok"] = canonical_mod.reassemble(form) == alpha
        if job.list_projections:
            projs = canonical_mod.f_projections(gobj, ring)
            out["f_projections"] = [p.to_dict() for p in projs]
        report["canonical"] = out
        report["timings"] = {"total_s": round(time.perf_counter() - t_start, 6)}
        return 0, report

    if job.command == "crossval":
        sigma = _resolve_sigma(job, gobj, job.involution)
        cr = decide.cross_validate(gobj, sigma, ring, budget, job.include_clean)
        report.update(cr.to_json())
        if cr.theory is not None:
            report["certificates"] = cr.theory.certificates
        _maybe_explain(report, gobj, ring, job)
        report["timings"]["total_s"] = round(time.perf_counter() - t_start, 6)
        if cr.theory is not None and cr.theory.status is not Status.UNKNOWN:
            return _status_exit(cr.theory.status), report
        return _result_exit(cr.brute_star.result), report

    raise ParseError(f"unknown command {job.command!r}")


def _render_text(report: dict) -> str:
    lines = []
    for key in ("command", "group", "ring", "involution"):
        if key in report and report[key] is not None:
            lines.append(f"{key}: {report[key]}")
    if "label" in report:
        lines.append(f"level: {report['label']}")
    verdict = report.get("verdict") or report.get("theory")
    if verdict:
        lines.append(f"verdict: {verdict['status']}")
        for r in verdict["reasons"]:
            lines.append(f"  reason [{r['citation']}] {r['criterion']}: {r['data']}")
    if "result" in report and isinstance(report["result"], dict):
        rep = report["result"]
        lines.append(f"{rep['property']}: {rep['result']} ({rep['mode']}, tested {rep['tested']})")
        if "counterexample" in rep:
            lines.append(f"  counterexample: {rep['counterexample']}")
    if "brute" in report:
        for prop, rep in report["brute"].items():
            lines.append(
                f"brute {prop}: {rep['result']} ({rep['mode']}, tested {rep['tested']})"
            )
            if "counterexample" in rep:
                lines.append(f"  counterexample: {rep['counterexample']}")
    if "agreement" in report:
        lines.append(f"agreement: {report['agreement']}")
    if "outcome" in report:
        lines.append(f"outcome: {report['outcome']}")
    if "witness" in report and report["witness"]:
        w = report["witness"]
        lines.append(f"witness case: {w['case']}")
        lines.append(f"  gamma: {w['gamma']}")
        lines.append(f"  tau_w: {w['tau_w']}")
    if "canonical" in report:
        lines.append(f"canonical: {json.dumps(report['canonical'], sort_keys=True)}")
    if "lifted" in report:
        lines.append(f"lifted decomposition validated: {report['validated']}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(3)


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="starclean", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, budget=False, explain=False):
        p.add_argument("--group", required=True)
        p.add_argument("--ring", required=True)
        p.add_argument("--json", action="store_true")
        p.add_argument("--seed", type=_non_negative_int, default=0)
        if budget:
            p.add_argument("--budget", type=_non_negative_int, default=Budget.full_scan_limit,
                           help="full-scan cardinality cap")
        if explain:
            p.add_argument("--explain", action="store_true")

    p = sub.add_parser("decide", help="theory-side verdict")
    add_common(p, explain=True)
    p = sub.add_parser("brute", help="exhaustive/sampled scan")
    add_common(p, budget=True)
    p.add_argument("--involution", choices=["canonical", "classical"], default="canonical")
    p.add_argument("--property", dest="prop", choices=["star-clean", "clean"], default="star-clean")
    p = sub.add_parser("witness", help="construct a non-*-cleanness witness")
    add_common(p, explain=True)
    p = sub.add_parser("lift", help="lift a random decomposition across x C2")
    add_common(p)
    p.add_argument("--involution", choices=["canonical", "classical"], default="classical")
    p = sub.add_parser("canonical", help="canonical forms on the f-component")
    add_common(p)
    p.add_argument("--element", default=None, help='JSON map {"name": "coeff"}')
    p.add_argument("--list-projections", action="store_true")
    p = sub.add_parser("crossval", help="theory vs brute force")
    add_common(p, budget=True, explain=True)
    p.add_argument("--involution", choices=["canonical", "classical"], default="canonical")
    clean_group = p.add_mutually_exclusive_group()
    clean_group.add_argument("--clean", dest="include_clean", action="store_true", default=None)
    clean_group.add_argument("--no-clean", dest="include_clean", action="store_false")
    p = sub.add_parser("levels", help="level of Q(zeta_p) by residue class")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed memory for reuse.

    The scans build and drop numpy blocks of a few MB each; by default
    glibc returns such blocks to the kernel as they are freed (munmap, or
    trimming the heap top), and each next block faults its pages in again:
    thousands of page faults per job, whose cost swings with the host's
    memory load.  A fixed mmap threshold and no trimming keep those pages
    in the heap.  Where the C library has no mallopt, malloc keeps its
    defaults.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)  # glibc's largest fixed threshold
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    args = parser.parse_args(argv)
    job = JobSpec(
        command=args.command,
        group_spec=getattr(args, "group", None),
        ring_spec=getattr(args, "ring", None),
        involution=getattr(args, "involution", "canonical"),
        budget=Budget(full_scan_limit=getattr(args, "budget", Budget.full_scan_limit)),
        output_json=args.json,
        seed=getattr(args, "seed", 0),
        explain=getattr(args, "explain", False),
        prime=getattr(args, "prime", None),
        prop=getattr(args, "prop", "star-clean"),
        element=getattr(args, "element", None),
        list_projections=getattr(args, "list_projections", False),
        include_clean=getattr(args, "include_clean", None),
    )
    try:
        code, report = run(job)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CapacityError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, NonUnitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except DiscrepancyError as exc:
        print(f"DISCREPANCY: {exc}", file=sys.stderr)
        return 6
    if job.output_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(_render_text(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
