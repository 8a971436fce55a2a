"""Independent certificate verification.

The verifier recomputes every degree and multiplicity from the certificate
alone so that it can catch pipeline bugs; it deliberately shares no
intermediate state with the construction stages. It reports in
``model.Report``, the type ``validate_instance`` returns too: a shared shape,
not shared state.
"""
from __future__ import annotations

from itertools import chain, combinations, islice, repeat
from operator import eq, itemgetter, lt

from .combinatorics import binom
from .model import MAX_FAILURES, Certificate, EdgeClass, Instance, Report


def verify_certificate(cert: Certificate, inst: Instance) -> Report:
    """Check extension, completeness and regularity of a certificate.

    (a) extension: restricted to supports inside [1, m], the certificate
        coloring equals the instance coloring class by class;
    (b) completeness: every h-subset of [1, n] carries total multiplicity
        lambda;
    (c) regularity: every vertex of [1, n] has degree exactly r_j in every
        color class j.
    Failures are reported with their first counterexamples rather than
    raised: the first MAX_FAILURES in that order, and it looks no further. A
    malformed class (say, an unsorted support) is reported once and enters
    no other check. Each check decides in bulk, and walks only to name
    failures: a passing certificate costs one pass over its classes.
    """
    failures = islice(_certificate_failures(cert, inst), MAX_FAILURES)
    return Report([{"kind": kind, "detail": detail} for kind, detail in failures])


def _certificate_failures(cert: Certificate, inst: Instance):
    """Yield ``verify_certificate``'s (kind, detail) pairs in order, each found when asked for."""
    p = cert.params
    if p != inst.params:
        yield "extension", "certificate and instance parameters differ"
        return

    shape = (p.h, frozenset(range(1, p.n + 1)), frozenset(range(p.k)))
    fine = (repeat(True) if _well_formed(cert.coloring, *shape)   # else name the bad classes
            else [_well_formed((cls,), *shape) for cls in cert.coloring])

    totals: dict[tuple[int, ...], int] = {}
    inside: list[EdgeClass] = []   # the well-formed classes with supports in [1, m]
    degrees = {v: [0] * p.k for v in range(1, p.n + 1)}
    for cls, ok in zip(cert.coloring, fine):
        support, colors = cls.support, cls.colors
        if not ok:
            yield "completeness", f"malformed class {support} (amalgam={cls.amalgam})"
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
                yield "extension", (f"{set(support)}: instance colors {want}, "
                                    f"certificate colors {got}")

    # Every key of totals is a well-formed h-subset of [1, n], so C(n, h) keys are all of them.
    if len(totals) != binom(p.n, p.h) or not all(map(eq, totals.values(), repeat(p.lam))):
        for subset in combinations(range(1, p.n + 1), p.h):
            got = totals.get(subset, 0)
            if got != p.lam:
                yield "completeness", f"{set(subset)} has multiplicity {got}, expected {p.lam}"

    r = list(p.r)
    for v, row in degrees.items():
        if row != r:
            for j, (d, rj) in enumerate(zip(row, r), start=1):
                if d != rj:
                    yield "regularity", f"vertex {v} has degree {d} in color {j}, expected {rj}"


def _well_formed(classes, h: int, vertices: frozenset, colors: frozenset) -> bool:
    """Whether each class has amalgam 0, h ascending ``vertices`` and ``colors`` counts >= 1."""
    supports, maps = [cls.support for cls in classes], [cls.colors for cls in classes]
    return (all(map(eq, [cls.amalgam for cls in classes], repeat(0)))
            and all(len(support) == h for support in supports)
            and vertices.issuperset(chain.from_iterable(supports))
            and all(all(map(lt, map(itemgetter(i), supports), map(itemgetter(i + 1), supports)))
                    for i in range(h - 1))
            and colors.issuperset(chain.from_iterable(maps))
            and min(chain.from_iterable(map(dict.values, maps)), default=1) >= 1)


def _summed_colors(coloring) -> dict[tuple[int, ...], dict[int, int]]:
    """Per support, the summed counts as {1-based color: count}, ascending, zeros left out."""
    summed: dict[tuple[int, ...], dict[int, int]] = {}
    for cls in coloring:
        counts = summed.setdefault(cls.support, {})
        for j, cnt in cls.colors.items():
            counts[j] = counts.get(j, 0) + cnt
    return {support: {j + 1: cnt for j, cnt in sorted(counts.items()) if cnt}
            for support, counts in summed.items()}
