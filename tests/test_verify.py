"""Unit tests for the verifier and the brute-force oracle."""
from __future__ import annotations

from hyperfactor.generate import random_instance
from hyperfactor.model import Certificate, EdgeClass, Parameters
from hyperfactor.pipeline import extend_instance
from hyperfactor.verify import EXHAUSTED, TOO_LARGE, brute_force_extend, verify_certificate

from conftest import make_instance


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

    def test_parameter_mismatch_fails(self, worked_instance):
        cert = worked_certificate(worked_instance)
        other = make_instance(4, 2, 2, 1, (2, 1), {(1, 2): {1: 1}})
        report = verify_certificate(cert, other)
        assert not report.ok
        assert report.failures[0]["kind"] == "extension"


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
