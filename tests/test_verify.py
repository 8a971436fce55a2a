"""Unit tests for the verifier and the brute-force oracle."""
from __future__ import annotations

from itertools import combinations
from operator import lt

import pytest

from hyperfactor.combinatorics import binom
from hyperfactor.generate import random_instance
from hyperfactor.model import MAX_FAILURES, Certificate, EdgeClass, Instance, Parameters, Report
from hyperfactor.pipeline import extend_instance
from hyperfactor.verify import _summed_colors, verify_certificate

from conftest import make_instance
from oracles import EXHAUSTED, TOO_LARGE, brute_force_extend


def worked_certificate(inst) -> Certificate:
    pairs = {(1, 2): 1, (3, 4): 1, (1, 3): 2, (2, 4): 2, (1, 4): 3, (2, 3): 3}
    coloring = []
    for support, j in sorted(pairs.items()):
        coloring.append(EdgeClass(support=support, amalgam=0, colors={j - 1: 1}))
    return Certificate(params=inst.params, coloring=coloring, report=None)


class TestVerifyCertificate:
    def test_worked_certificate_passes(self, worked_instance):
        report = verify_certificate(worked_certificate(worked_instance), worked_instance)
        assert report.ok and report.failures == []
        assert report.to_json() == {"pass": True, "failures": []}

    def test_recolored_edge_fails_regularity_at_two_vertices(self, worked_instance):
        cert = worked_certificate(worked_instance)
        cls = next(c for c in cert.coloring if c.support == (3, 4))
        cls.colors = {1: 1}   # repaint {3,4} from color 1 to color 2
        report = verify_certificate(cert, worked_instance)
        assert not report.ok
        regularity = [f for f in report.failures if f["kind"] == "regularity"]
        vertices = {f["detail"].split()[1] for f in regularity}
        assert vertices == {"3", "4"}

    def test_missing_copy_fails_completeness_naming_the_subset(self, worked_instance):
        cert = worked_certificate(worked_instance)
        cert.coloring = [c for c in cert.coloring if c.support != (2, 4)]
        report = verify_certificate(cert, worked_instance)
        assert not report.ok
        completeness = [f for f in report.failures if f["kind"] == "completeness"]
        assert any("{2, 4}" in f["detail"] for f in completeness)

    def test_changed_input_edge_fails_extension(self, worked_instance):
        cert = worked_certificate(worked_instance)
        for cls in cert.coloring:
            if cls.support == (1, 2):
                cls.colors = {2: 1}
            elif cls.support == (1, 4):
                cls.colors = {0: 1}
        report = verify_certificate(cert, worked_instance)
        assert any(f["kind"] == "extension" for f in report.failures)

    def test_verifier_is_independent_of_pipeline(self, worked_instance):
        # a certificate built by hand, not by the pipeline, still verifies
        assert verify_certificate(worked_certificate(worked_instance), worked_instance).ok

    def test_unsorted_support_is_malformed_and_checked_no_further(self, worked_instance):
        cert = worked_certificate(worked_instance)
        cert.coloring = [EdgeClass(support=(3, 1), amalgam=0, colors=c.colors)
                         if c.support == (1, 3) else c for c in cert.coloring]
        report = verify_certificate(cert, worked_instance)
        malformed = [f for f in report.failures if f["detail"].startswith("malformed class")]
        assert malformed == [{"kind": "completeness",
                              "detail": "malformed class (3, 1) (amalgam=0)"}]
        assert not any(f["kind"] == "extension" for f in report.failures), report.failures

    def test_parameter_mismatch_fails(self, worked_instance):
        cert = worked_certificate(worked_instance)
        other = make_instance(4, 2, 2, 1, (2, 1), {(1, 2): {1: 1}})
        report = verify_certificate(cert, other)
        assert not report.ok
        assert report.failures[0]["kind"] == "extension"


def perturbed(cert, idx, colors) -> Certificate:
    """``cert`` with class ``idx`` holding ``colors``; a class left empty is dropped."""
    coloring = list(cert.coloring)
    if colors:
        coloring[idx] = EdgeClass(support=coloring[idx].support, amalgam=0, colors=colors)
    else:
        del coloring[idx]
    return Certificate(params=cert.params, coloring=coloring, report=None)


class TestPerturbation:
    """Every one-copy change to a valid certificate fails with the right kinds.

    Dropping a copy breaks completeness and regularity; moving a copy to
    another color breaks regularity only. Either breaks extension exactly
    when the class's support lies inside [1, m].
    """

    @pytest.mark.parametrize("n, m, h, lam, r", [
        (8, 4, 2, 1, (2, 2, 1, 1, 1)),
        (9, 3, 3, 1, (1,) * 28),
        (6, 3, 2, 2, (1,) * 10),
    ])
    def test_one_copy_changes_are_caught(self, n, m, h, lam, r):
        inst = random_instance(Parameters(n=n, m=m, h=h, lam=lam, r=r), seed=1)
        cert = extend_instance(inst)
        assert verify_certificate(cert, inst).ok

        def kinds(idx, colors):
            report = verify_certificate(perturbed(cert, idx, colors), inst)
            return {failure["kind"] for failure in report.failures}

        for idx, cls in enumerate(cert.coloring):
            inside = cls.support[-1] <= m
            for j, cnt in cls.colors.items():
                dropped = {**cls.colors, j: cnt - 1}
                if cnt == 1:
                    del dropped[j]
                got = kinds(idx, dropped)
                assert {"completeness", "regularity"} <= got, (cls, j)
                assert ("extension" in got) == inside, (cls, j)
                for other in range(len(r)):
                    if other != j:
                        moved = {**dropped, other: dropped.get(other, 0) + 1}
                        got = kinds(idx, moved)
                        assert "regularity" in got and "completeness" not in got, (cls, j, other)
                        assert ("extension" in got) == inside, (cls, j, other)


def reference_verify(cert: Certificate, inst: Instance) -> Report:
    """Check extension, completeness and regularity of a certificate.

    ``verify_certificate`` as it was when every check walked each class,
    subset and degree cell; the test oracle for its bulk verdicts.
    """
    p = cert.params
    failures: list[dict] = []

    def fail(kind: str, detail: str) -> None:
        if len(failures) < MAX_FAILURES:
            failures.append({"kind": kind, "detail": detail})

    if p != inst.params:
        fail("extension", "certificate and instance parameters differ")
        return Report(failures)

    totals: dict[tuple[int, ...], int] = {}
    inside: list[EdgeClass] = []   # the well-formed classes with supports in [1, m]
    degrees = {v: [0] * p.k for v in range(1, p.n + 1)}
    is_vertex, is_color = range(1, p.n + 1).__contains__, range(p.k).__contains__
    for cls in cert.coloring:
        support, colors = cls.support, cls.colors
        if (cls.amalgam != 0 or len(support) != p.h
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

    return Report(failures)


def malformed_colorings(cert: Certificate):
    """``cert``'s coloring with each malformed change made to each class in turn,
    then with a class added, a class left out, and every class malformed."""
    n, k = cert.params.n, cert.params.k
    changes = [
        lambda s, c: (s, 1, c),
        lambda s, c: (s, None, c),
        lambda s, c: (s[:-1], 0, c),                   # a support of length h - 1
        lambda s, c: ((0,) + s[1:], 0, c),
        lambda s, c: (s[:-1] + (n + 1,), 0, c),
        lambda s, c: ((True,) + s[1:], 0, c),
        lambda s, c: (s[::-1], 0, c),                  # unsorted
        lambda s, c: (s[:1] * len(s), 0, c),           # a repeated vertex
        lambda s, c: (s, 0, {k: 1}),
        lambda s, c: (s, 0, {-1: 1}),
        lambda s, c: (s, 0, dict.fromkeys(c, 0)),
        lambda s, c: (s, 0, dict.fromkeys(c, -1)),
        lambda s, c: (s, 0, dict.fromkeys(c, 0.5)),
    ]
    for change in changes:
        for idx, cls in enumerate(cert.coloring):
            coloring = list(cert.coloring)
            coloring[idx] = EdgeClass(*change(cls.support, cls.colors))
            yield coloring
    yield cert.coloring + [cert.coloring[1]]
    yield cert.coloring[1:]
    yield [EdgeClass(support=c.support, amalgam=1, colors=c.colors) for c in cert.coloring]


class TestBulkVerdicts:
    """``verify_certificate`` reports exactly what ``reference_verify`` reports."""

    @staticmethod
    def same_report(cert, inst) -> dict:
        want = reference_verify(cert, inst).to_json()
        assert verify_certificate(cert, inst).to_json() == want, cert.coloring
        return want

    @pytest.mark.parametrize("n, m, h, lam, r", [
        (8, 4, 2, 1, (2, 2, 1, 1, 1)),
        (9, 3, 3, 1, (1,) * 28),
        (6, 3, 2, 2, (1,) * 10),
    ])
    def test_every_drop_and_move(self, n, m, h, lam, r):
        inst = random_instance(Parameters(n=n, m=m, h=h, lam=lam, r=r), seed=1)
        cert = extend_instance(inst)
        assert self.same_report(cert, inst)["pass"] is True
        for idx, cls in enumerate(cert.coloring):
            for j, cnt in cls.colors.items():
                dropped = {**cls.colors, j: cnt - 1}
                if cnt == 1:
                    del dropped[j]
                self.same_report(perturbed(cert, idx, dropped), inst)
                for other in range(len(r)):
                    if other != j:
                        moved = {**dropped, other: dropped.get(other, 0) + 1}
                        self.same_report(perturbed(cert, idx, moved), inst)

    def test_malformed_classes(self, worked_instance):
        cert = worked_certificate(worked_instance)
        for coloring in malformed_colorings(cert):
            report = self.same_report(Certificate(params=cert.params, coloring=coloring),
                                      worked_instance)
        assert len(report["failures"]) == MAX_FAILURES   # 25 failures, capped

    def test_empty_certificate_reports_its_first_failures(self):
        # h2_dense's parameters: 780 input subsets, 12 720 missing subsets and
        # 25 440 wrong degrees, of which the report names the first 20.
        params = Parameters(n=160, m=40, h=2, lam=1, r=(1,) * 159)
        inst = random_instance(params, seed=1)
        report = self.same_report(Certificate(params=params, coloring=[]), inst)
        assert report["pass"] is False and len(report["failures"]) == MAX_FAILURES
        assert report["failures"][0] == {
            "kind": "extension", "detail": "{1, 2}: instance colors {133: 1}, certificate colors {}"}
        given = _summed_colors(inst.coloring)
        assert report["failures"] == [
            {"kind": "extension",
             "detail": f"{ {1, v} }: instance colors {given[(1, v)]}, certificate colors {{}}"}
            for v in range(2, 2 + MAX_FAILURES)]


class TestBruteForceExtend:
    def test_finds_k4_one_factorization(self, worked_instance):
        cert = brute_force_extend(worked_instance)
        assert isinstance(cert, Certificate)
        assert verify_certificate(cert, worked_instance).ok

    def test_inadmissible_is_exhausted(self):
        inst = make_instance(3, 2, 2, 1, (1, 1), {(1, 2): {1: 1}})
        assert brute_force_extend(inst) is EXHAUSTED

    def test_budget_exceeded(self):
        params = Parameters(n=9, m=3, h=3, lam=1, r=(1,) * 28)
        inst = random_instance(params, seed=0)
        assert brute_force_extend(inst, copy_budget=60) is TOO_LARGE

    def test_no_extension_is_exhausted(self):
        # proper 3-matching coloring of K_4 cannot extend to K_6 with 5 colors:
        # colors 4 and 5 would need perfect matchings avoiding every K_4 edge
        inst = make_instance(6, 4, 2, 1, (1,) * 5, {
            (1, 2): {1: 1}, (3, 4): {1: 1},
            (1, 3): {2: 1}, (2, 4): {2: 1},
            (1, 4): {3: 1}, (2, 3): {3: 1},
        })
        assert brute_force_extend(inst) is EXHAUSTED

    def test_agrees_with_pipeline(self):
        params = Parameters(n=6, m=3, h=2, lam=2, r=(2,) * 5)
        for seed in range(3):
            inst = random_instance(params, seed=seed)
            oracle_cert = brute_force_extend(inst)
            pipeline_cert = extend_instance(inst, seed=seed)
            assert verify_certificate(oracle_cert, inst).ok
            assert verify_certificate(pipeline_cert, inst).ok
