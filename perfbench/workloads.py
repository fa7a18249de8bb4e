"""Seeded workloads: input generators, the timed operation, and its oracle checks.

Each workload draws its inputs from ``random.Random(seed)`` with the
standard library only; zdcert receives nothing but the generated inputs.
An operation returns what it computed, and ``check`` compares that with the
oracles in ``oracles.py`` outside the timed region, returning one message
per mismatch.

* ``bundled``  - the level-276 dataset on every operation: the paper's one
  real input, identical each time, so a cache kept across calls shows its
  whole effect here.
* ``newforms`` - distinct synthetic newform datasets.  Most fail some check
  (class number != 2, reducible or unstable quartics), which exercises the
  failure paths, ``factor_quartic`` and rendering; no input repeats.
* ``classgroup`` - ``class_group(maximal_order(d))`` for squarefree d of both
  signs with |d| log-uniform up to 2*10^4: the quadratic-order layer alone.
  Small |d| recur, as they do in real traffic.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

import oracles

BUNDLED_CHARPOLY = [289, -136, 40, -8, 1]
# discriminants of the Frobenius quartics at 17 and 19 quoted in the README
BUNDLED_DISCRIMINANTS = (519737600, 2127878400)

NEWFORM_DS = [d for d in range(2, 61) if oracles.is_squarefree(d)]
NEWFORM_PRIMES = [p for p in range(17, 114) if all(p % q for q in range(2, isqrt(p) + 1))]
CLASSGROUP_MAX_ABS_D = 20_000
_GOLDEN = (math.sqrt(5) - 1) / 2

_GENERATED_AT = re.compile(r'^\s*"generated_at": .*$\n?', re.MULTILINE)


def strip_timestamp(report_json: str) -> str:
    """The certificate JSON without its ``generated_at`` line, the one field that may vary."""
    return _GENERATED_AT.sub("", report_json)


def _x_max(y: int, d: int, p: int) -> int:
    """Largest X >= 0 with X + |y| sqrt(d) <= 2 sqrt(p), for y^2 d <= 4p, compared exactly."""
    def fits(x: int) -> bool:
        slack = 4 * p - x * x - y * y * d
        return slack >= 0 and 4 * x * x * y * y * d <= slack * slack

    x = 0
    while fits(x + 1):
        x += 1
    return x


def draw_eigenvalue(rng: random.Random, d: int, p: int) -> tuple[int, int]:
    """An integral x + y sqrt(d) inside the Weil bound at p in both embeddings.

    y comes first from {y : y^2 d <= 4p}, which always holds 0, and x from the
    exact range that y leaves, so the draw never needs a retry.
    """
    y_max = isqrt(4 * p // d)
    y = rng.randint(-y_max, y_max)
    x_max = _x_max(y, d, p)
    return rng.randint(-x_max, x_max), y


def _split_prime_ideal(rng: random.Random, d: int) -> tuple[int, int]:
    """(l, b): l the smallest prime that is not inert in Q(sqrt(d)), l | N(b + w)."""
    trace, norm = (1, (1 - d) // 4) if d % 4 == 1 else (0, -d)
    ell = 2
    while True:
        if all(ell % q for q in range(2, isqrt(ell) + 1)):
            roots = [b for b in range(ell) if (b * b + trace * b + norm) % ell == 0]
            if roots:
                return ell, rng.choice(roots)
        ell += 1


def newform_dataset(rng: random.Random) -> dict:
    d = rng.choice(NEWFORM_DS)
    p1, p2 = sorted(rng.sample(NEWFORM_PRIMES, 2))
    eigenvalues = []
    for p in (p1, p2):
        x, y = draw_eigenvalue(rng, d, p)
        eigenvalues.append({"p": p, "a": [x, 1, y, 1]})
    level = rng.randint(11, 2000)
    while level % p1 == 0 or level % p2 == 0:
        level = rng.randint(11, 2000)
    ell, b = _split_prime_ideal(rng, d)
    return {
        "level": level,
        "hecke_field_d": d,
        "expected_dim": 2,
        "eigenvalues": eigenvalues,
        "ideal": {"a": ell, "b": b, "q": 1},
    }


def classgroup_ds(rng: random.Random):
    """Squarefree d of alternating sign with log|d| spread evenly up to log(2*10^4).

    log|d| / log(max) steps through a golden-ratio sequence from a seeded
    start, so every window of operations holds nearly the same mix of small
    and large discriminants and runs with different seeds stay comparable.
    """
    u = rng.random()
    for k in itertools.count():
        u = (u + _GOLDEN) % 1.0
        m = round(math.exp(u * math.log(CLASSGROUP_MAX_ABS_D)))
        sign = 1 if k % 2 == 0 else -1
        d = sign * m
        while d == 1 or not oracles.is_squarefree(d):
            d += sign
        yield d


def _check_by_name(report: dict, name: str) -> dict:
    return next(c for c in report["checks"] if c["name"] == name)


@dataclass
class CertificateResult:
    verdict: str
    report_json: str
    text: str


class _CertificateWorkload:
    """Shared by the two workloads whose operation is what ``verify --report`` does
    after reading the file: parse, certify at the default bound, serialise, render."""

    def __init__(self, zd):
        self.certify = zd.certify

    def op(self, raw: dict) -> CertificateResult:
        inp = self.certify.parse_input(raw)
        cert = self.certify.run_certificate(inp)
        return CertificateResult(cert.verdict, cert.to_json(), cert.render_text())

    def _check_common(self, raw: dict, res: CertificateResult) -> tuple[dict, list[str]]:
        report = json.loads(res.report_json)
        errors = []
        computed = [c for c in report["checks"] if c["provenance"] == "computed"]
        n_pass = sum(c["verdict"] == "pass" for c in computed)
        expect_verdict = "pass" if n_pass == len(computed) else "fail"
        if len(computed) != 10:
            errors.append(f"{len(computed)} computed checks, expected 10")
        if report["verdict"] != expect_verdict or res.verdict != expect_verdict:
            errors.append(f"verdict {res.verdict} does not follow from {n_pass}/{len(computed)} passes")
        overall = f"OVERALL: {expect_verdict.upper()} ({n_pass}/{len(computed)} computed checks pass)"
        if res.text.splitlines()[-1] != overall:
            errors.append(f"text ends {res.text.splitlines()[-1]!r}, expected {overall!r}")

        d = raw["hecke_field_d"]
        (p1, a1), (p2, a2) = sorted((e["p"], e["a"]) for e in raw["eigenvalues"])
        c3 = _check_by_name(report, "frobenius_charpoly")
        for key, p, a in (("charpoly_p1", p1, a1), ("charpoly_p2", p2, a2)):
            want = oracles.weil_quartic(a[0], a[2], d, p)
            if c3["outputs"].get(key) != want:
                errors.append(f"check 3 {key} = {c3['outputs'].get(key)}, expected {want}")
        return report, errors

    def cli_args(self, raw: dict, input_path: Path, report_path: Path) -> list[str]:
        input_path.write_text(json.dumps(raw))
        return ["verify", str(input_path), "--report", str(report_path)]

    def check_cli(self, raw, res: CertificateResult, code, stdout, report_path: Path) -> list[str]:
        errors = []
        want_code = 0 if res.verdict == "pass" else 1
        if code != want_code:
            errors.append(f"CLI exit {code}, expected {want_code}")
        if stdout != f"{res.text}\nreport written to {report_path}\n":
            errors.append("CLI stdout differs from the in-process rendering")
        if strip_timestamp(report_path.read_text()) != strip_timestamp(res.report_json):
            errors.append("CLI report differs from the in-process certificate")
        return errors


class Bundled(_CertificateWorkload):
    def __init__(self, zd, seed: int):
        super().__init__(zd)
        self.raw = json.loads(zd.cli.bundled_dataset_path().read_text())
        self.first_json: str | None = None
        self.first_stdout: str | None = None

    def inputs(self):
        return itertools.repeat(self.raw)

    def check(self, raw: dict, res: CertificateResult) -> list[str]:
        report, errors = self._check_common(raw, res)
        if res.verdict != "pass":
            errors.append(f"bundled verdict is {res.verdict}")
        c3 = _check_by_name(report, "frobenius_charpoly")["outputs"]
        if c3.get("charpoly_p1") != BUNDLED_CHARPOLY:
            errors.append(f"charpoly at 17 is {c3.get('charpoly_p1')}")
        for key, want in zip(("charpoly_p1", "charpoly_p2"), BUNDLED_DISCRIMINANTS):
            if oracles.quartic_discriminant(c3[key]) != want:
                errors.append(f"discriminant of {key} is not {want}")
        stable = strip_timestamp(res.report_json)
        if self.first_json is None:
            self.first_json = stable
        elif stable != self.first_json:
            errors.append("certificate JSON differs from the first operation's")
        return errors

    def cli_args(self, raw: dict, input_path: Path, report_path: Path) -> list[str]:
        return ["verify", "--bundled", "--report", str(report_path)]

    def check_cli(self, raw, res, code, stdout, report_path) -> list[str]:
        errors = super().check_cli(raw, res, code, stdout, report_path)
        if self.first_stdout is None:
            self.first_stdout = stdout
        elif stdout != self.first_stdout:
            errors.append("CLI stdout differs from the first call's")
        return errors


class Newforms(_CertificateWorkload):
    def __init__(self, zd, seed: int):
        super().__init__(zd)
        self.rng = random.Random(seed)

    def inputs(self):
        seen = set()
        while True:
            raw = newform_dataset(self.rng)
            key = json.dumps(raw, sort_keys=True)
            if key not in seen:
                seen.add(key)
                yield raw

    def check(self, raw: dict, res: CertificateResult) -> list[str]:
        report, errors = self._check_common(raw, res)
        d = raw["hecke_field_d"]
        h = oracles.class_number(d)
        c1 = _check_by_name(report, "class_group")
        if c1["outputs"].get("h") != h or (c1["verdict"] == "pass") != (h == 2):
            errors.append(f"check 1 says h = {c1['outputs'].get('h')} ({c1['verdict']}), forms give {h}")

        c4 = _check_by_name(report, "surface_checks")
        c5 = _check_by_name(report, "power_stability")
        all_positive = True
        for e in raw["eigenvalues"]:
            p, (x, _, y, _) = e["p"], e["a"]
            quartic = oracles.weil_quartic(x, y, d, p)
            irreducible = oracles.quartic_irreducible(x, y, d, p)
            ordinary = oracles.is_ordinary(quartic, p)
            got = c4["outputs"].get(f"p{p}", {})
            if (got.get("irreducible"), got.get("ordinary")) != (irreducible, ordinary):
                errors.append(f"check 4 at {p}: {got}, expected irreducible={irreducible} ordinary={ordinary}")
            stability = c5["outputs"].get(f"p{p}")
            if (stability is not None) != irreducible:
                errors.append(f"check 5 at {p}: stability report present={stability is not None}")
                continue
            if irreducible and ordinary:
                stable = not oracles.howe_zhu_unstable(quartic, p)
                if stability["stable"] != stable:
                    errors.append(f"check 5 at {p}: stable={stability['stable']}, Howe-Zhu says {stable}")
            all_positive &= irreducible and stability["stable"]
        if (c5["verdict"] == "pass") != all_positive:
            errors.append(f"check 5 verdict {c5['verdict']} disagrees with its per-prime reports")
        return errors


@dataclass
class ClassGroupResult:
    disc: int
    h: int
    invariants: tuple[int, ...]
    n_classes: int


class ClassGroupWorkload:
    def __init__(self, zd, seed: int):
        self.orders = zd.orders
        self.rng = random.Random(seed)

    def inputs(self):
        return classgroup_ds(self.rng)

    def op(self, d: int) -> ClassGroupResult:
        cg = self.orders.class_group(self.orders.maximal_order(d))
        return ClassGroupResult(cg.order.disc, cg.h, cg.invariants, len(cg.classes))

    def check(self, d: int, res: ClassGroupResult) -> list[str]:
        h = oracles.class_number(d)
        errors = []
        if res.disc != oracles.fundamental_disc(d):
            errors.append(f"d = {d}: disc {res.disc}")
        if res.h != h or math.prod(res.invariants) != h or res.n_classes != h:
            errors.append(f"d = {d}: h = {res.h}, invariants {res.invariants}, "
                          f"{res.n_classes} classes; forms give h = {h}")
        if any(b % a for a, b in zip(res.invariants, res.invariants[1:])):
            errors.append(f"d = {d}: invariants {res.invariants} do not divide each other")
        return errors

    def cli_args(self, d: int, input_path: Path, report_path: Path) -> list[str]:
        return ["classgroup", "--d", str(d)]

    def check_cli(self, d, res, code, stdout, report_path) -> list[str]:
        want = (f"discriminant: {oracles.fundamental_disc(d)}", f"(h = {oracles.class_number(d)})")
        if code != 0 or not (want[0] in stdout and want[1] in stdout):
            return [f"classgroup --d {d}: exit {code}, stdout lacks {want}"]
        return []


WORKLOADS = {"bundled": Bundled, "newforms": Newforms, "classgroup": ClassGroupWorkload}
