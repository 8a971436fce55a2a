"""Independent certificate verification.

The verifier recomputes every degree and multiplicity from the certificate
alone so that it can catch pipeline bugs; it deliberately shares no
intermediate state with the construction stages.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, repeat
from operator import eq, itemgetter, lt

from .combinatorics import binom
from .model import Certificate, EdgeClass, Instance


@dataclass
class VerifyReport:
    ok: bool
    failures: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"pass": self.ok, "failures": self.failures}


_MAX_FAILURES = 20


def verify_certificate(cert: Certificate, inst: Instance) -> VerifyReport:
    """Check extension, completeness and regularity of a certificate.

    (a) extension: restricted to supports inside [1, m], the certificate
        coloring equals the instance coloring class by class;
    (b) completeness: every h-subset of [1, n] carries total multiplicity
        lambda;
    (c) regularity: every vertex of [1, n] has degree exactly r_j in every
        color class j.
    Failures are reported with their first counterexamples rather than
    raised. A malformed class (say, an unsorted support) is reported once and
    enters no other check. Each check decides in bulk, and walks only to name
    failures: a passing certificate costs one pass over its classes.
    """
    p = cert.params
    failures: list[dict] = []

    def fail(kind: str, detail: str) -> None:
        if len(failures) < _MAX_FAILURES:
            failures.append({"kind": kind, "detail": detail})

    if p != inst.params:
        fail("extension", "certificate and instance parameters differ")
        return VerifyReport(ok=False, failures=failures)

    supports = [cls.support for cls in cert.coloring]
    maps = [cls.colors for cls in cert.coloring]
    is_vertex, is_color = range(1, p.n + 1).__contains__, range(p.k).__contains__
    well_formed = (   # the per-class test below, over all classes at once
        all(map(eq, [cls.amalgam for cls in cert.coloring], repeat(0)))
        and all(len(support) == p.h for support in supports)
        and frozenset(range(1, p.n + 1)).issuperset(chain.from_iterable(supports))
        and all(all(map(lt, map(itemgetter(i), supports), map(itemgetter(i + 1), supports)))
                for i in range(p.h - 1))
        and frozenset(range(p.k)).issuperset(chain.from_iterable(maps))
        and min(chain.from_iterable(map(dict.values, maps)), default=1) >= 1)

    totals: dict[tuple[int, ...], int] = {}
    inside: list[EdgeClass] = []   # the well-formed classes with supports in [1, m]
    degrees = {v: [0] * p.k for v in range(1, p.n + 1)}
    for cls in cert.coloring:
        support, colors = cls.support, cls.colors
        if not well_formed and (
                cls.amalgam != 0 or len(support) != p.h
                or not all(map(is_vertex, support)) or not all(map(lt, support, support[1:]))
                or not all(map(is_color, colors)) or min(colors.values(), default=1) < 1):
            fail("completeness", f"malformed class {support} (amalgam={cls.amalgam})")
            continue
        totals[support] = totals.get(support, 0) + sum(colors.values())
        if support[-1] <= p.m:
            inside.append(cls)
        for j, cnt in colors.items():
            for v in support:
                degrees[v][j] += cnt

    restricted, given = _summed_colors(inside), _summed_colors(inst.coloring)
    if restricted != given:
        for support in sorted(set(given) | set(restricted)):
            want, got = given.get(support, {}), restricted.get(support, {})
            if want != got:
                fail("extension",
                     f"{set(support)}: instance colors {want}, certificate colors {got}")

    # Every key of totals is a well-formed h-subset of [1, n], so C(n, h) keys are all of them.
    if len(totals) != binom(p.n, p.h) or not all(map(eq, totals.values(), repeat(p.lam))):
        for subset in combinations(range(1, p.n + 1), p.h):
            got = totals.get(subset, 0)
            if got != p.lam:
                fail("completeness",
                     f"{set(subset)} has multiplicity {got}, expected {p.lam}")

    r = list(p.r)
    for v, row in degrees.items():
        if row != r:
            for j, d in enumerate(row):
                if d != r[j]:
                    fail("regularity",
                         f"vertex {v} has degree {d} in color {j + 1}, expected {r[j]}")

    return VerifyReport(ok=not failures, failures=failures)


def _summed_colors(coloring) -> dict[tuple[int, ...], dict[int, int]]:
    """Per support, the summed counts as {1-based color: count}, ascending, zeros left out."""
    summed: dict[tuple[int, ...], dict[int, int]] = {}
    for cls in coloring:
        counts = summed.setdefault(cls.support, {})
        for j, cnt in cls.colors.items():
            counts[j] = counts.get(j, 0) + cnt
    return {support: {j + 1: cnt for j, cnt in sorted(counts.items()) if cnt}
            for support, counts in summed.items()}
