"""Output checks: compare each job's report with its expected verdict and
re-verify every certificate by direct computation.

The checks use the program's group tables and coefficient-ring arithmetic
(the carrier definition), but none of its group-ring, unit-testing,
enumeration or decision code, except `witness.check_witness`, which the
certificate format asks for.  Group-ring products, unit tests (Gaussian
elimination over lookup tables) and projection enumeration are done here.
All of it runs outside the timed interval.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction

import numpy as np

from starclean import cli, coeff, groups, witness
from starclean.groupring import GroupRing

from jobs import Z_BUDGET, Job

_TERM = re.compile(r"([+-]?)([^+-]+)")


class Carrier:
    """A parsed (group, ring) pair with sparse group-ring arithmetic."""

    def __init__(self, G: groups.FiniteGroup, R: coeff.CoefficientRing, slc=None):
        self.G, self.R, self.slc = G, R, slc
        self.mul_t = G.mul.tolist()
        self.n = G.order
        self._tables = None
        self._projections: dict = {}

    @classmethod
    def from_specs(cls, group_spec: str, ring_spec: str) -> "Carrier":
        gobj = cli.parse_group_spec(group_spec)
        R = coeff.make_ring(ring_spec)
        if isinstance(gobj, groups.SLCStructure):
            return cls(gobj.group, R, gobj)
        return cls(gobj, R)

    # -- payloads and elements ---------------------------------------------
    def payload(self, text: str, R=None):
        R = R or self.R
        if isinstance(R, coeff.RationalField):
            return Fraction(text)
        if isinstance(R, coeff.ModRing) or (isinstance(R, coeff.FiniteField) and R.k == 1):
            return R.from_int(int(text))
        degree = R.k if isinstance(R, coeff.FiniteField) else R.degree
        digits = [Fraction(0)] * degree
        for sign, body in _TERM.findall(text.replace(" ", "")):
            c, _, base = body.rpartition("*") if "*" in body else ("", "", body)
            if base[0] not in "wz":
                c, base = base, ""
            power = 0 if not base else int(base[2:] or 1) if "^" in base else 1
            value = Fraction(c or 1)
            digits[power] += -value if sign == "-" else value
        if isinstance(R, coeff.FiniteField):
            return R.undigits(int(d) for d in digits)
        return tuple(digits)

    def element(self, named: dict) -> dict:
        """Sparse element {group index: payload} from {name: coefficient}."""
        out = {}
        for name, text in named.items():
            c = self.payload(text)
            if not self.R.is_zero(c):
                out[self.G.index_of(name)] = c
        return out

    def basis(self, g: int) -> dict:
        return {g: self.R.one}

    def add(self, a: dict, b: dict) -> dict:
        R = self.R
        out = dict(a)
        for g, c in b.items():
            out[g] = R.add(out[g], c) if g in out else c
        return {g: c for g, c in out.items() if not R.is_zero(c)}

    def neg(self, a: dict) -> dict:
        return {g: self.R.neg(c) for g, c in a.items()}

    def mul(self, a: dict, b: dict) -> dict:
        R, table = self.R, self.mul_t
        out: dict = {}
        for g, cg in a.items():
            row = table[g]
            for h, ch in b.items():
                k = row[h]
                p = R.mul(cg, ch)
                out[k] = R.add(out[k], p) if k in out else p
        return {g: c for g, c in out.items() if not R.is_zero(c)}

    def star(self, a: dict, image) -> dict:
        return {int(image[g]): c for g, c in a.items()}

    def codes(self, a: dict) -> np.ndarray:
        row = np.zeros(self.n, dtype=np.int64)
        for g, c in a.items():
            row[g] = self.R.encode(c)
        return row

    # -- finite rings: lookup tables, unit test, idempotent filter ----------
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        if self._tables is None:
            R = self.R
            q = R.order
            add = np.array([[R.add(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)
            mul = np.array([[R.mul(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)
            self._tables = (add, mul)
        return self._tables

    def is_unit(self, a: dict) -> bool:
        """Unit test in a finite ring: the left regular representation is
        invertible over every residue field of R."""
        row = self.codes(a)
        inv = np.asarray(self.G.inverse)
        M = row[np.asarray(self.G.mul)[:, inv]]  # M[k, h] = a[k h^-1]
        R = self.R
        if isinstance(R, coeff.FiniteField) and R.k > 1:
            add, mul = self.tables()
            return _nonsingular(M, add, mul)
        n = R.order
        for p in {p for p, _ in R.factorization} if isinstance(R, coeff.ModRing) else {n}:
            r = np.arange(p)
            if not _nonsingular(M % p, (r[:, None] + r) % p, (r[:, None] * r) % p):
                return False
        return True

    def idempotent_mask(self, X: np.ndarray) -> np.ndarray:
        add, mul = self.tables()
        sq = np.zeros_like(X)
        for g in range(self.n):
            xg = X[:, g]
            for h in range(self.n):
                k = self.mul_t[g][h]
                sq[:, k] = add[sq[:, k], mul[xg, X[:, h]]]
        return (sq == X).all(axis=1)

    def projections(self, image) -> np.ndarray:
        """Every projection (sigma-fixed idempotent) as code rows, by
        enumerating the sigma-symmetric subspace."""
        key = np.asarray(image).tobytes()
        if key not in self._projections:
            self._projections[key] = self._enumerate_projections(image)
        return self._projections[key]

    def _enumerate_projections(self, image) -> np.ndarray:
        orbits = sorted({tuple(sorted((g, int(image[g])))) for g in range(self.n)})
        q = self.R.order
        found = []
        chunk = 1 << 15
        total = q ** len(orbits)
        for start in range(0, total, chunk):
            counters = np.arange(start, min(total, start + chunk), dtype=np.int64)
            X = np.zeros((counters.size, self.n), dtype=np.int64)
            for orbit in orbits:
                digit = counters % q
                counters = counters // q
                for g in orbit:
                    X[:, g] = digit
            found.append(X[self.idempotent_mask(X)])
        return np.concatenate(found)

    def canonical_image(self) -> np.ndarray:
        return groups.canonical_involution(self.slc).image

    def classical_image(self) -> np.ndarray:
        return np.asarray(self.G.inverse)


def _nonsingular(M: np.ndarray, add: np.ndarray, mul: np.ndarray) -> bool:
    """Gaussian elimination over a finite field given by code tables."""
    M = M.copy()
    n = M.shape[0]
    neg = np.argmin(add, axis=1)  # add[a, neg[a]] == 0
    inv = np.argmax(mul == 1, axis=1)
    for c in range(n):
        nz = np.nonzero(M[c:, c])[0]
        if nz.size == 0:
            return False
        r = c + int(nz[0])
        if r != c:
            M[[c, r]] = M[[r, c]]
        pivot_row = mul[inv[M[c, c]], M[c]]
        below = M[c + 1 :, c]
        M[c + 1 :] = add[M[c + 1 :], neg[mul[below[:, None], pivot_row[None, :]]]]
    return True


# --------------------------------------------------------------------------
# certificate checks
# --------------------------------------------------------------------------

def _three_squares_ok(carrier: Carrier, ring_spec: str, triple: list[str]) -> bool:
    R = coeff.make_ring(ring_spec)
    x, y, z = (carrier.payload(t, R) for t in triple)
    total = R.add(R.add(R.mul(x, x), R.mul(y, y)), R.add(R.mul(z, z), R.one))
    return R.is_zero(total)


def _witness_ok(carrier: Carrier, w: dict) -> bool:
    """Condition 1 by direct computation, the triple of a three-squares
    witness, and the exhaustive condition-2 check where it is affordable."""
    S, R = carrier.slc, carrier.R
    gamma, tau = carrier.element(w["gamma"]), carrier.element(w["tau_w"])
    one = carrier.basis(carrier.G.identity)
    oms = carrier.add(one, carrier.neg(carrier.basis(S.s)))
    cond1 = carrier.mul(carrier.mul(carrier.add(one, carrier.neg(carrier.mul(gamma, gamma))), tau), oms)
    if cond1:
        return False
    if w["case"] == witness.CASE_THREE_SQUARES:
        if not _three_squares_ok(carrier, R.spec_string(), w["data"]["triple"]):
            return False
    if R.order is not None and R.order ** S.zsize <= Z_BUDGET:
        RG = GroupRing(carrier.G, R)

        def dense(el):
            return RG.from_coeffs(el.get(g, R.zero) for g in range(carrier.n))

        outcome = witness.check_witness(
            carrier.G, R, groups.canonical_involution(S),
            witness.NonCleanWitness(dense(gamma), dense(tau), w["case"]), S.s, Z_BUDGET,
        )
        return outcome.is_valid
    return True


def _certificates_ok(carrier: Carrier, certs: list[dict]) -> bool:
    for cert in certs:
        if cert["kind"] == "witness" and not _witness_ok(carrier, cert):
            return False
        if cert["kind"] == "three-squares" and not _three_squares_ok(
            carrier, cert["ring"], cert["triple"]
        ):
            return False
    return True


def _counterexample_ok(carrier: Carrier, rep: dict, image) -> bool:
    """The counterexample has no unit + projection decomposition against the
    complete projection set, whose size matches the report."""
    projs = carrier.projections(image)
    if projs.shape[0] != rep["structure_size"]:
        return False
    alpha = carrier.element(rep["counterexample"])
    R = carrier.R
    for row in projs:
        p = {g: R.decode(int(c)) for g, c in enumerate(row) if c}
        if carrier.is_unit(carrier.add(alpha, carrier.neg(p))):
            return False
    return True


def _decomposition_ok(carrier: Carrier, dec: dict, image) -> bool:
    u, p = carrier.element(dec["unit"]), carrier.element(dec["projection"])
    return (
        carrier.mul(p, p) == p
        and carrier.star(p, image) == p
        and carrier.is_unit(u)
    )


# --------------------------------------------------------------------------
# per-command checks
# --------------------------------------------------------------------------

_EXIT = {"star-clean": 0, "not-star-clean": 1, "unknown": 2}


class Outcome:
    """A job's check result.  Every failure counts the job as failed; a
    definite verdict that contradicts the expected one also makes the run's
    results incorrect."""

    def __init__(self):
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.proved = False

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def contradict(self, reason: str) -> None:
        self.failures.append(reason)
        self.wrong.append(reason)


class Checker:
    """Checks job outputs; carriers and verdicts are cached per run."""

    def __init__(self):
        self._carriers: dict = {}
        self._done: dict = {}

    def carrier(self, group: str, ring: str) -> Carrier:
        key = (group, ring)
        if key not in self._carriers:
            self._carriers[key] = Carrier.from_specs(group, ring)
        return self._carriers[key]

    def check(self, job: Job, code: int | None, report: dict | None, error: str = "") -> Outcome:
        key = (job.argv, code, json.dumps(report, sort_keys=True), error)
        if key not in self._done:
            self._done[key] = self._check(job, code, report, error)
        return self._done[key]

    def _check(self, job: Job, code, report, error) -> Outcome:
        out = Outcome()
        if code is None:
            out.fail(f"raised: {error}")
            return out
        if code > 2:
            out.fail(f"exit code {code}: {error}")
            return out
        try:
            getattr(self, "_" + job.command)(job, code, report, out)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            out.fail(f"malformed report: {exc!r}")
        out.proved = out.proved and not out.failures
        return out

    def _decide(self, job, code, report, out) -> None:
        status = report["verdict"]["status"]
        if code != _EXIT[status]:
            out.fail(f"exit code {code} for {status}")
        if status != "unknown" and status != job.expect["star_clean"]:
            out.contradict(f"verdict {status}, expected {job.expect['star_clean']}")
        carrier = self.carrier(job.option("--group"), job.option("--ring"))
        certs = report.get("certificates", [])
        if not _certificates_ok(carrier, certs):
            out.fail("certificate failed re-verification")
        elif status == "not-star-clean":
            out.proved = bool(certs)
        elif status == "star-clean":
            out.proved = True

    def _witness(self, job, code, report, out) -> None:
        outcome = report["outcome"]
        if outcome == "unknown":
            return
        got = "witness-found" if outcome == "witness-found" else "no-witness"
        if got != job.expect["witness"]:
            out.contradict(f"witness outcome {got}, expected {job.expect['witness']}")
            return
        if got == "no-witness":
            out.proved = code == 0
            return
        carrier = self.carrier(job.option("--group"), job.option("--ring"))
        if not _witness_ok(carrier, report["witness"]):
            out.fail("witness failed re-verification")
            return
        out.proved = code == 1

    def _brute_result(self, job, rep, prop, image, out) -> bool:
        """Check one brute-force sub-report; True when it is a proof."""
        expected = job.expect["clean"] if prop == "clean" else job.expect["star_clean"] == "star-clean"
        result = rep["result"]
        if result is None:
            return False
        if result != expected:
            out.contradict(f"brute {prop} result {result}, expected {expected}")
            return False
        if result is True:
            return rep["mode"] == "full" and rep["structure_full"]
        if not rep["structure_full"]:
            out.fail(f"brute {prop} claims a counterexample without a complete structure set")
            return False
        carrier = self.carrier(job.option("--group"), job.option("--ring"))
        if prop == "star-clean" and not _counterexample_ok(carrier, rep, image):
            out.fail(f"brute {prop} counterexample failed re-verification")
            return False
        return True

    def _image(self, job):
        carrier = self.carrier(job.option("--group"), job.option("--ring"))
        if job.option("--involution", "canonical") == "classical":
            return carrier.classical_image()
        return carrier.canonical_image()

    def _sampled_claim(self, code, rep, out) -> None:
        if code in (0, 1) and rep["mode"] == "sampled" and rep["result"] is True:
            out.fail(f"exit code {code} on a sampled scan: no proof")

    def _brute(self, job, code, report, out) -> None:
        rep = report["result"]
        prop = rep["property"]
        proof = self._brute_result(job, rep, prop, self._image(job), out)
        self._sampled_claim(code, rep, out)
        out.proved = proof

    def _crossval(self, job, code, report, out) -> None:
        theory = report["theory"]
        carrier = self.carrier(job.option("--group"), job.option("--ring"))
        definite = theory is not None and theory["status"] != "unknown"
        if definite and theory["status"] != job.expect["star_clean"]:
            out.contradict(f"theory {theory['status']}, expected {job.expect['star_clean']}")
        if not _certificates_ok(carrier, report.get("certificates", [])):
            out.fail("certificate failed re-verification")
        star = report["brute"]["star_clean"]
        proof = self._brute_result(job, star, "star-clean", self._image(job), out)
        if "clean" in report["brute"]:
            self._brute_result(job, report["brute"]["clean"], "clean", None, out)
        if not definite:
            self._sampled_claim(code, star, out)
        out.proved = proof

    def _lift(self, job, code, report, out) -> None:
        carrier = self.carrier(job.option("--group"), job.option("--ring"))
        H = carrier.G
        image_h = carrier.classical_image()
        lifted = Carrier(groups.direct_product(H, groups.cyclic_group(2)), carrier.R)
        image_g = [int(image_h[h]) * 2 + c for h in range(H.order) for c in (0, 1)]
        base, top = report["base_decomposition"], report["lifted"]
        target = carrier.add(carrier.element(base["unit"]), carrier.element(base["projection"]))
        embedded = {2 * h: c for h, c in target.items()}
        lifted_target = lifted.add(lifted.element(top["unit"]), lifted.element(top["projection"]))
        ok = (
            report["validated"] is True
            and report["lifted_group_order"] == 2 * H.order
            and _decomposition_ok(carrier, base, image_h)
            and _decomposition_ok(lifted, top, image_g)
            and lifted_target == embedded
        )
        if not ok:
            out.fail("lifted decomposition failed re-verification")
        out.proved = ok

    def _canonical(self, job, code, report, out) -> None:
        carrier = self.carrier(job.option("--group"), job.option("--ring"))
        res = report["canonical"]
        if job.option("--element"):
            alpha = carrier.element(json.loads(job.option("--element")))
            symmetric = carrier.star(alpha, carrier.canonical_image()) == alpha
            if not (
                res["roundtrip_ok"] is True
                and res["symmetric"] == symmetric
                and _form_matches(carrier, res["form"], alpha)
            ):
                out.fail("canonical form failed re-verification")
        if job.expect.get("projections"):
            problem = _f_projections_problem(carrier, res["f_projections"])
            if problem:
                out.fail(problem)
        out.proved = True


def _form_matches(carrier: Carrier, form: dict, alpha: dict) -> bool:
    """Reassemble x_ij entries as t_j a^i kappa (1 - s) and compare."""
    G, R, S = carrier.G, carrier.R, carrier.slc
    rebuilt: dict = {}
    for key, entry in form.items():
        t_name, _, a_pow = key[2:].partition(",a^")
        g = G.index_of(t_name) if t_name != "1" else G.identity
        if int(a_pow):
            g = carrier.mul_t[g][G.power(G.index_of("a"), int(a_pow))]
        for k_name, text in entry.items():
            h = carrier.mul_t[g][G.index_of(k_name)]
            c = carrier.payload(text)
            rebuilt[h] = c
            rebuilt[carrier.mul_t[S.s][h]] = R.neg(c)
    return {g: c for g, c in rebuilt.items() if not R.is_zero(c)} == alpha


def _f_projections_problem(carrier: Carrier, listed: list[dict]) -> str:
    """Why the listed f-projections are not exactly the projections of
    (RG)f, or "".  Those are supported on the center with c(s z) = -c(z),
    which is enumerated here."""
    S, R = carrier.slc, carrier.R
    image = carrier.canonical_image()
    elements = [carrier.element(p) for p in listed]
    for p in elements:
        in_f = all(
            R.is_zero(R.add(p.get(g, R.zero), p.get(carrier.mul_t[S.s][g], R.zero)))
            for g in range(carrier.n)
        )
        if not (in_f and carrier.mul(p, p) == p and carrier.star(p, image) == p):
            return "listed f-projection is not a projection of (RG)f"
    center = [z for z in range(carrier.n) if int(image[z]) == z]
    reps = sorted({min(z, carrier.mul_t[S.s][z]) for z in center})
    count = 0
    for values in itertools.product(range(R.order), repeat=len(reps)):
        d = {}
        for z, v in zip(reps, values):
            if v:
                d[z] = R.decode(v)
                d[carrier.mul_t[S.s][z]] = R.neg(R.decode(v))
        if carrier.mul(d, d) == d:
            count += 1
    distinct = len({tuple(sorted(p.items())) for p in elements})
    if distinct != len(elements):
        return f"f-projection list repeats entries: {len(elements)} listed, {distinct} distinct"
    if distinct != count:
        return f"f-projection list incomplete: {distinct} listed, {count} exist"
    return ""


def random_f_element(carrier: Carrier, rng) -> str:
    """JSON {name: code} of a seeded random element of (RG)f."""
    S, R, G = carrier.slc, carrier.R, carrier.G
    out = {}
    for g in range(carrier.n):
        sg = carrier.mul_t[S.s][g]
        if g < sg:
            v = rng.randrange(R.order)
            if v:
                out[G.names[g]] = str(v)
                out[G.names[sg]] = str(R.encode(R.neg(R.decode(v))))
    return json.dumps(out, sort_keys=True)
