"""Per-layer tracing from outside the program.

`Tracer.install` replaces each traced public function of `starclean` with a
wrapper in every namespace that bound it by name (module attributes, the
package's re-exports, and `GroupRingElement.__mul__` on the class), and
`uninstall` restores the originals.  Nothing under `src/` changes.

A wrapper records a span (name, start, end, parent, job id) while a traced
pass is active, keeps spans in memory up to a cap, and aggregates self time
(duration minus the time covered by child spans), inclusive time and call
counts per span name, plus a few counters read from arguments and results.
`decide._is_unit_codes`, called millions of times per brute scan, is only
counted; its time stays in the calling scan's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

from starclean import coeff, groups

# (span name, module, attribute); "linalg" is the `_linalg` module
TARGETS = (
    ("cli.run", "starclean.cli", "run"),
    ("groups.build_slc", "starclean.groups", "build_slc"),
    ("groups.build_abelian", "starclean.groups", "build_abelian"),
    ("coeff.solve_three_squares", "starclean.coeff", "solve_three_squares"),
    ("coeff.two_squares_search", "starclean.coeff", "two_squares_search"),
    ("coeff.extend_with_root", "starclean.coeff", "extend_with_root"),
    ("groupring.mul", "starclean.groupring", "GroupRingElement.__mul__"),
    ("groupring.batch_convolve", "starclean.groupring", "batch_convolve"),
    ("groupring.is_unit", "starclean.groupring", "is_unit"),
    ("groupring.unit_inverse", "starclean.groupring", "unit_inverse"),
    ("linalg.is_invertible_codes", "starclean._linalg", "is_invertible_codes"),
    ("linalg.is_invertible", "starclean._linalg", "is_invertible"),
    ("linalg.solve_column", "starclean._linalg", "solve_column"),
    ("decide.projection_set", "starclean.decide", "projection_set"),
    ("decide.idempotent_set", "starclean.decide", "idempotent_set"),
    ("decide.brute_star_clean", "starclean.decide", "brute_star_clean"),
    ("decide.brute_clean", "starclean.decide", "brute_clean"),
    ("decide.cross_validate", "starclean.decide", "cross_validate"),
    ("decide.is_unit_codes", "starclean.decide", "_is_unit_codes"),  # counted only
    ("decide.decide_star_clean", "starclean.decide", "decide_star_clean"),
    ("decide.necessary_conditions", "starclean.decide", "necessary_conditions"),
    ("decide.theorem_c_decide", "starclean.decide", "theorem_c_decide"),
    ("decide.element_star_clean", "starclean.decide", "element_star_clean"),
    ("witness.generate_witness", "starclean.witness", "generate_witness"),
    ("witness.check_witness", "starclean.witness", "check_witness"),
    ("witness.lift_c2", "starclean.witness", "lift_c2"),
    ("canonical.decompose_f", "starclean.canonical", "decompose_f"),
    ("canonical.f_projections", "starclean.canonical", "f_projections"),
)
NAMES = tuple(t[0] for t in TARGETS)
_ID = {name: i for i, name in enumerate(NAMES)}
_KERNELS = {_ID["linalg.is_invertible_codes"], _ID["linalg.is_invertible"]}
_BRUTE = {_ID["decide.brute_star_clean"], _ID["decide.brute_clean"]}
_MEMO = _ID["decide.is_unit_codes"]
_IS_UNIT = _ID["groupring.is_unit"]
_COUNTED = {_MEMO}

SPAN_CAP = 100_000


def _count_unknown(t, args, kwargs, result):
    t.counts["coeff.solve_three_squares.unknown"] += result is coeff.UNKNOWN


def _count_rows(t, args, kwargs, result):
    t.counts["groupring.batch_convolve.rows"] += args[1].shape[0]


def _count_structure(kind):
    def hook(t, args, kwargs, result):
        rows, full = result
        t.counts[f"decide.{kind}.found"] += rows.shape[0]
        t.counts[f"decide.{kind}.full"] += bool(full)
    return hook


def _count_scanned(t, args, kwargs, result):
    t.counts["decide.elements_scanned"] += result.tested


def _count_z(t, args, kwargs, result):
    G, R = args[0], args[1]
    if R.order is not None:
        t.counts["witness.check_witness.z_candidates"] += R.order ** groups.center(G).order


def _count_f_projections(t, args, kwargs, result):
    t.counts["canonical.f_projections.found"] += len(result)


_HOOKS = {
    "coeff.solve_three_squares": _count_unknown,
    "groupring.batch_convolve": _count_rows,
    "decide.projection_set": _count_structure("projection_set"),
    "decide.idempotent_set": _count_structure("idempotent_set"),
    "decide.brute_star_clean": _count_scanned,
    "decide.brute_clean": _count_scanned,
    "witness.check_witness": _count_z,
    "canonical.f_projections": _count_f_projections,
}


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.active = False
        self.job = -1
        self.span_cap = span_cap
        self._stack: list[list] = []  # [name id, start, child time, span row]
        self._patches: list[tuple] = []
        self._brute_depth = 0
        self.self_s = [0.0] * len(NAMES)
        self.total_s = [0.0] * len(NAMES)
        self.calls = [0] * len(NAMES)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans = {
            "name": array("i"), "parent": array("i"), "job": array("i"),
            "start": array("d"), "end": array("d"),
        }
        self.dropped = 0

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items()) if n == "starclean" or n.startswith("starclean.")]
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        name_id = _ID[name]
        hook = _HOOKS.get(name)
        tracer = self
        clock = time.perf_counter

        if name_id in _COUNTED:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                if tracer.active:
                    tracer.calls[name_id] += 1
                    if tracer._brute_depth:
                        tracer.counts["decide.unit_tests_in_scan"] += 1
                return fn(*args, **kwargs)

            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name_id, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, clock())
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- spans -------------------------------------------------------------
    def _enter(self, name_id: int, start: float) -> list:
        row = -1
        spans = self.spans
        if len(spans["name"]) < self.span_cap:
            row = len(spans["name"])
            spans["name"].append(name_id)
            spans["parent"].append(self._stack[-1][3] if self._stack else -1)
            spans["job"].append(self.job)
            spans["start"].append(start)
            spans["end"].append(start)
        else:
            self.dropped += 1
        if name_id in _BRUTE:
            self._brute_depth += 1
        elif name_id in _KERNELS and not (self._stack and self._stack[-1][0] == _IS_UNIT):
            # the kernel's only other caller is the memoised decide._is_unit_codes
            self.counts["decide.kernel_calls_from_memo"] += 1
        frame = [name_id, start, 0.0, row]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, end: float) -> None:
        self._stack.pop()
        name_id, start, child, row = frame
        duration = end - start
        self.self_s[name_id] += duration - child
        self.total_s[name_id] += duration
        self.calls[name_id] += 1
        if row >= 0:
            self.spans["end"][row] = end
        if self._stack:
            self._stack[-1][2] += duration
        if name_id in _BRUTE:
            self._brute_depth -= 1

    def write_spans(self, path) -> None:
        cols = {key: col.tolist() for key, col in self.spans.items()}
        with open(path, "w") as fh:
            json.dump({"names": NAMES, "dropped": self.dropped, "spans": cols}, fh)

    # -- per-layer metrics -------------------------------------------------
    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per pass over the job list."""
        def s(name):
            return self.self_s[_ID[name]] / passes

        def calls(name):
            return self.calls[_ID[name]] / passes

        def count(key):
            return self.counts[key] / passes

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for i, name in enumerate(NAMES):
            if i not in _COUNTED:
                out[f"{name}.s"] = (s(name), "s")
        for name in ("groups.build_slc", "coeff.solve_three_squares", "coeff.two_squares_search",
                     "groupring.mul", "groupring.is_unit", "linalg.is_invertible_codes",
                     "linalg.is_invertible", "decide.projection_set", "witness.generate_witness"):
            out[f"{name}.calls"] = (calls(name), "count")
        for key in ("coeff.solve_three_squares.unknown", "groupring.batch_convolve.rows",
                    "decide.projection_set.found", "decide.idempotent_set.found",
                    "decide.elements_scanned", "witness.check_witness.z_candidates",
                    "canonical.f_projections.found"):
            out[key] = (count(key), "count")
        for kind in ("projection_set", "idempotent_set"):
            out[f"decide.{kind}.full_ratio"] = (
                ratio(self.counts[f"decide.{kind}.full"], self.calls[_ID[f"decide.{kind}"]]), "ratio")
        scanned = self.counts["decide.elements_scanned"]
        scan_time = sum(self.total_s[i] for i in _BRUTE)
        out["decide.elements_per_s"] = (ratio(scanned, scan_time), "1/s")
        out["decide.unit_tests_per_element"] = (
            ratio(self.counts["decide.unit_tests_in_scan"], scanned), "tests/element")
        memo_calls = self.calls[_MEMO]
        out["decide.unit_memo_hit_ratio"] = (
            1.0 - ratio(self.counts["decide.kernel_calls_from_memo"], memo_calls) if memo_calls else 0.0,
            "ratio")
        kernel_calls = sum(self.calls[i] for i in _KERNELS)
        out["linalg.unit_test_us"] = (
            ratio(sum(self.total_s[i] for i in _KERNELS), kernel_calls) * 1e6, "us")
        return out
