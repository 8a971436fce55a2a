"""Independent certificate verification and a brute-force oracle.

The verifier recomputes every degree and multiplicity from the certificate
alone so that it can catch pipeline bugs; it deliberately shares no
intermediate state with the construction stages.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

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
    raised.
    """
    p = cert.params
    failures: list[dict] = []

    def fail(kind: str, detail: str) -> None:
        if len(failures) < _MAX_FAILURES:
            failures.append({"kind": kind, "detail": detail})

    if p != inst.params:
        fail("extension", "certificate and instance parameters differ")
        return VerifyReport(ok=False, failures=failures)

    totals: dict[tuple[int, ...], int] = {}
    degrees = {v: [0] * p.k for v in range(1, p.n + 1)}
    is_vertex, is_color = range(1, p.n + 1).__contains__, range(p.k).__contains__
    for cls in cert.coloring:
        colors = cls.colors
        if (cls.amalgam != 0 or len(cls.support) != p.h or cls.uncolored
                or len(set(cls.support)) != p.h or not all(map(is_vertex, cls.support))
                or not all(map(is_color, colors)) or min(colors.values(), default=1) < 1):
            fail("completeness", f"malformed class {cls.support} (amalgam={cls.amalgam})")
            continue
        support = tuple(sorted(cls.support))
        totals[support] = totals.get(support, 0) + sum(colors.values())
        for j, cnt in colors.items():
            for v in support:
                degrees[v][j] += cnt

    restricted = _summed_colors(cls for cls in cert.coloring
                                if cls.support and cls.support[-1] <= p.m
                                and len(cls.support) == p.h)
    given = _summed_colors(inst.coloring)
    for support in sorted(set(given) | set(restricted)):
        want, got = given.get(support, {}), restricted.get(support, {})
        if want != got:
            fail("extension",
                 f"{set(support)}: instance colors {want}, certificate colors {got}")

    for subset in combinations(range(1, p.n + 1), p.h):
        got = totals.get(subset, 0)
        if got != p.lam:
            fail("completeness",
                 f"{set(subset)} has multiplicity {got}, expected {p.lam}")

    for v in range(1, p.n + 1):
        for j in range(p.k):
            if degrees[v][j] != p.r[j]:
                fail("regularity",
                     f"vertex {v} has degree {degrees[v][j]} in color {j + 1}, "
                     f"expected {p.r[j]}")

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


class _Marker:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


EXHAUSTED = _Marker("EXHAUSTED")
TOO_LARGE = _Marker("TOO_LARGE")


def brute_force_extend(inst: Instance, copy_budget: int = 60):
    """Backtracking oracle for tiny instances.

    Colors the copies of lambda K_n^h missing from lambda K_m^h one at a
    time, under the degree caps and the exact per-color quota of
    r_j * n / h edge copies. Returns a Certificate, EXHAUSTED when no
    extension exists, or TOO_LARGE when the number of new copies exceeds
    ``copy_budget``. Independent of the construction pipeline.
    """
    p = inst.params
    new_copies = p.lam * (binom(p.n, p.h) - binom(p.m, p.h))
    if new_copies > copy_budget:
        return TOO_LARGE

    if sum(p.r) != p.lam * binom(p.n - 1, p.h - 1):
        return EXHAUSTED
    if any((rj * p.n) % p.h for rj in p.r):
        return EXHAUSTED
    quotas = [(rj * p.n) // p.h for rj in p.r]

    degrees = {v: [0] * p.k for v in range(1, p.n + 1)}
    used = [0] * p.k
    for cls in inst.coloring:
        for j, cnt in cls.colors.items():
            used[j] += cnt
            for v in cls.support:
                degrees[v][j] += cnt

    subsets = [s for s in combinations(range(1, p.n + 1), p.h) if s[-1] > p.m]
    remaining = {s: p.lam for s in subsets}
    assignment: dict[tuple[int, ...], list[int]] = {s: [] for s in subsets}

    def feasible_colors(subset: tuple[int, ...], min_color: int) -> list[int]:
        return [j for j in range(min_color, p.k)
                if used[j] < quotas[j]
                and all(degrees[v][j] < p.r[j] for v in subset)]

    def pick_subset():
        best = None
        best_options = None
        for s in subsets:
            if remaining[s] == 0:
                continue
            floor = assignment[s][-1] if assignment[s] else 0
            options = feasible_colors(s, floor)
            if not options:
                return s, []
            if best_options is None or len(options) < len(best_options):
                best, best_options = s, options
                if len(options) == 1:
                    break
        return best, best_options

    def search() -> bool:
        subset, options = pick_subset()
        if subset is None:
            return True
        for j in options:
            used[j] += 1
            for v in subset:
                degrees[v][j] += 1
            assignment[subset].append(j)
            remaining[subset] -= 1
            if search():
                return True
            remaining[subset] += 1
            assignment[subset].pop()
            for v in subset:
                degrees[v][j] -= 1
            used[j] -= 1
        return False

    if not search():
        return EXHAUSTED

    coloring = [EdgeClass(support=c.support, amalgam=0, colors=dict(c.colors))
                for c in inst.coloring]
    for subset in subsets:
        counts: dict[int, int] = {}
        for j in assignment[subset]:
            counts[j] = counts.get(j, 0) + 1
        coloring.append(EdgeClass(support=subset, amalgam=0, colors=counts))
    coloring.sort(key=lambda c: c.key())
    return Certificate(params=p, coloring=coloring, report=None)
