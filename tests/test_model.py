"""Unit tests for the instance model, validation, and serialization."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from hyperfactor.combinatorics import binom
from hyperfactor.errors import SchemaError
from hyperfactor.generate import random_instance
from hyperfactor.model import (
    EdgeClass,
    Parameters,
    is_admissible,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
    validate_instance,
)

from conftest import make_instance


class TestParameters:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Parameters(n=4, m=4, h=2, lam=1, r=(1,))      # m < n fails
        with pytest.raises(ValueError):
            Parameters(n=4, m=2, h=1, lam=1, r=(1,))      # h >= 2 fails
        with pytest.raises(ValueError):
            Parameters(n=4, m=2, h=2, lam=0, r=(1,))      # lambda >= 1 fails
        with pytest.raises(ValueError):
            Parameters(n=4, m=2, h=2, lam=1, r=(1, 0))    # zero degree rejected

    def test_k_property(self):
        assert Parameters(n=4, m=2, h=2, lam=1, r=(2, 1)).k == 2


class TestAdmissibility:
    def test_examples(self):
        assert is_admissible(Parameters(n=4, m=2, h=2, lam=1, r=(1, 1, 1)))
        assert is_admissible(Parameters(n=4, m=2, h=2, lam=1, r=(2, 1)))
        assert not is_admissible(Parameters(n=5, m=2, h=2, lam=1, r=(1, 1, 1, 1)))
        assert is_admissible(Parameters(n=9, m=3, h=3, lam=1, r=(1,) * 28))
        assert binom(8, 2) == 28

    def test_wrong_sum_rejected(self):
        assert not is_admissible(Parameters(n=4, m=2, h=2, lam=1, r=(1, 1)))

    @given(st.permutations(list(range(1, 8))))
    def test_invariant_under_permutation_of_r(self, perm):
        base = Parameters(n=12, m=3, h=2, lam=1, r=tuple(range(1, 8)))
        shuffled = Parameters(n=12, m=3, h=2, lam=1, r=tuple(perm))
        assert is_admissible(base) == is_admissible(shuffled)


class TestValidateInstance:
    def test_valid_single_edge(self):
        inst = make_instance(4, 2, 2, 1, (1, 1, 1), {(1, 2): {1: 1}})
        assert validate_instance(inst).ok

    def test_extra_edges(self):
        inst = make_instance(4, 2, 2, 1, (1, 1, 1), {(1, 2): {1: 1, 2: 1}})
        report = validate_instance(inst)
        assert not report.ok
        assert report.issues[0].kind == "extra_edges"

    def test_missing_edges(self):
        inst = make_instance(4, 3, 2, 1, (1, 1, 1),
                             {(1, 2): {1: 1}, (1, 3): {2: 1}})
        report = validate_instance(inst)
        assert any(i.kind == "missing_edges" for i in report.issues)

    def test_degree_cap_exceeded(self):
        inst = make_instance(6, 3, 2, 1, (2, 2, 1),
                             {(1, 2): {1: 1}, (1, 3): {1: 1}, (2, 3): {3: 1}})
        # color 3 at cap 1 is fine; now overload color 3
        bad = make_instance(6, 3, 2, 1, (1, 2, 2),
                            {(1, 2): {1: 1}, (1, 3): {1: 1}, (2, 3): {2: 1}})
        assert validate_instance(inst).ok
        report = validate_instance(bad)
        assert not report.ok
        assert report.issues[0].kind == "degree_cap_exceeded"
        assert "vertex 1" in report.issues[0].detail

    def test_double_copies_within_cap(self):
        inst = make_instance(6, 3, 2, 2, (2, 2, 2, 2, 2),
                             {(1, 2): {1: 2}, (1, 3): {2: 2}, (2, 3): {3: 2}})
        assert validate_instance(inst).ok

    def test_malformed_class(self):
        inst = make_instance(4, 2, 2, 1, (1, 1, 1), {(1, 2): {1: 1}})
        inst.coloring[0].amalgam = 1
        report = validate_instance(inst)
        assert not report.ok
        assert report.issues[0].kind == "malformed_class"

    @pytest.mark.parametrize("colors, problem", [
        ({3: 1}, "color index outside [0, 3)"),
        ({-1: 1}, "color index outside [0, 3)"),
        ({0: 1, 1: 0}, "zero or negative copy count"),
        ({0: 2, 1: -1}, "zero or negative copy count"),
    ])
    def test_color_map_breaking_the_invariant_is_malformed(self, colors, problem):
        # A class's map holds 0-based colors in [0, k), each with a positive count.
        inst = make_instance(4, 2, 2, 1, (1, 1, 1), {})
        inst.coloring = [EdgeClass(support=(1, 2), amalgam=0, colors=colors)]
        report = validate_instance(inst)
        assert [issue.kind for issue in report.issues] == ["malformed_class"]
        assert report.issues[0].detail == f"class 0: {problem}"


WORKED_DOC = ('{"n":4,"m":2,"h":2,"lambda":1,"r":[1,1,1],'
              '"edges":[{"support":[1,2],"alpha":0,"colors":{"1":1}}]}\n')


class TestSerialization:
    def test_canonical_round_trip(self):
        inst = parse_instance(WORKED_DOC)
        assert serialize_instance(inst) == WORKED_DOC

    def test_unsorted_support_resorted(self):
        doc = WORKED_DOC.replace("[1,2]", "[2,1]")
        inst = parse_instance(doc)
        assert inst.coloring[0].support == (1, 2)
        assert serialize_instance(inst) == WORKED_DOC

    def test_vertex_zero_rejected(self):
        doc = WORKED_DOC.replace("[1,2]", "[0,2]")
        with pytest.raises(SchemaError) as err:
            parse_instance(doc)
        assert "support" in str(err.value)

    def test_unknown_field_rejected(self):
        doc = json.loads(WORKED_DOC)
        doc["comment"] = "hello"
        with pytest.raises(SchemaError):
            parse_instance(json.dumps(doc))

    def test_unknown_edge_field_rejected(self):
        doc = json.loads(WORKED_DOC)
        doc["edges"][0]["weight"] = 3
        with pytest.raises(SchemaError):
            parse_instance(json.dumps(doc))

    def test_missing_field_rejected(self):
        doc = json.loads(WORKED_DOC)
        del doc["lambda"]
        with pytest.raises(SchemaError):
            parse_instance(json.dumps(doc))

    def test_bad_json_rejected(self):
        with pytest.raises(SchemaError):
            parse_instance("{not json")

    def test_color_out_of_range_rejected(self):
        doc = WORKED_DOC.replace('{"1":1}', '{"4":1}')
        with pytest.raises(SchemaError):
            parse_instance(doc)

    def test_nonzero_alpha_rejected(self):
        doc = WORKED_DOC.replace('"alpha":0', '"alpha":1')
        with pytest.raises(SchemaError):
            parse_instance(doc)

    def test_support_outside_m_rejected(self):
        doc = WORKED_DOC.replace("[1,2]", "[1,3]")
        with pytest.raises(SchemaError):
            parse_instance(doc)

    def test_duplicate_classes_merged(self):
        doc = json.loads(WORKED_DOC)
        doc["lambda"] = 2
        doc["r"] = [2, 2, 2]
        doc["edges"] = [
            {"support": [1, 2], "alpha": 0, "colors": {"1": 1}},
            {"support": [1, 2], "alpha": 0, "colors": {"1": 1, "2": 0}},
        ]
        inst = parse_instance(json.dumps(doc))
        assert len(inst.coloring) == 1
        assert inst.coloring[0].colors == {0: 2}

    def test_zero_count_parses_to_no_entry(self):
        doc = WORKED_DOC.replace('{"1":1}', '{"1":1,"2":0}')
        inst = parse_instance(doc)
        assert inst.coloring[0].colors == {0: 1}
        assert serialize_instance(inst) == WORKED_DOC

    def test_class_with_only_zero_counts_is_dropped(self):
        doc = json.loads(WORKED_DOC)
        doc["edges"].append({"support": [3, 4], "alpha": 0, "colors": {"2": 0, "3": 0}})
        doc["report"] = {}
        cert = parse_certificate(json.dumps(doc))
        assert [(c.support, c.colors) for c in cert.coloring] == [((1, 2), {0: 1})]

    def test_repeated_classes_serialize_summed(self):
        inst = make_instance(4, 2, 2, 2, (2, 2, 2), {(1, 2): {1: 1}})
        inst.coloring.append(EdgeClass(support=(1, 2), amalgam=0, colors={0: 1, 2: 1}))
        edges = json.loads(serialize_instance(inst))["edges"]
        assert edges == [{"support": [1, 2], "alpha": 0, "colors": {"1": 2, "3": 1}}]
        assert [c.colors for c in inst.coloring] == [{0: 1}, {0: 1, 2: 1}]   # left as they were

    def test_certificate_requires_report(self):
        with pytest.raises(SchemaError):
            parse_certificate(WORKED_DOC)

    def test_certificate_round_trip(self):
        doc = json.loads(WORKED_DOC)
        doc["edges"] = [
            {"support": [1, 2], "alpha": 0, "colors": {"1": 1}},
            {"support": [1, 3], "alpha": 0, "colors": {"2": 1}},
            {"support": [1, 4], "alpha": 0, "colors": {"3": 1}},
            {"support": [2, 3], "alpha": 0, "colors": {"3": 1}},
            {"support": [2, 4], "alpha": 0, "colors": {"2": 1}},
            {"support": [3, 4], "alpha": 0, "colors": {"1": 1}},
        ]
        doc["report"] = {"pass": True, "failures": []}
        text = json.dumps(doc, separators=(",", ":")) + "\n"
        cert = parse_certificate(text)
        assert serialize_certificate(cert) == text

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000),
           cell=st.sampled_from([(4, 2, 2, 1), (6, 3, 2, 1), (6, 3, 2, 2), (9, 3, 3, 1)]))
    def test_round_trip_on_random_instances(self, seed, cell):
        n, m, h, lam = cell
        params = Parameters(n=n, m=m, h=h, lam=lam, r=(1,) * (lam * binom(n - 1, h - 1)))
        inst = random_instance(params, seed=seed)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert serialize_instance(again) == text
        assert again.params == inst.params
        assert [c.key() for c in again.coloring] == [c.key() for c in inst.coloring]


class TestParseErrorLocations:
    """Each kind of bad edge entry names its exact field; entry 0 is valid."""

    @staticmethod
    def error_for(bad_entry: dict) -> SchemaError:
        doc = json.loads(WORKED_DOC)
        doc["lambda"], doc["r"] = 2, [2, 2, 2]
        doc["edges"].append(bad_entry)
        with pytest.raises(SchemaError) as err:
            parse_instance(json.dumps(doc))
        return err.value

    @pytest.mark.parametrize("support, reason, location", [
        ([1, "2"], "expected an integer", "$.edges[1].support[1]"),
        ([True, 2], "expected an integer", "$.edges[1].support[0]"),
        ([1, 3], "vertex 3 outside [1, 2]", "$.edges[1].support[1]"),
        ([2, 2], "repeated vertex in support", "$.edges[1].support"),
    ])
    def test_support(self, support, reason, location):
        err = self.error_for({"support": support, "alpha": 0, "colors": {"1": 1}})
        assert (err.reason, err.location) == (reason, location)

    def test_nonzero_alpha(self):
        err = self.error_for({"support": [1, 2], "alpha": 1, "colors": {"1": 1}})
        assert (err.reason, err.location) == (
            "alpha must be 0 in instance/certificate documents", "$.edges[1].alpha")

    @pytest.mark.parametrize("colors, reason, location", [
        ({"01": 1}, "color 01 outside [1, 3]", "$.edges[1].colors['01']"),
        ({"4": 1}, "color 4 outside [1, 3]", "$.edges[1].colors['4']"),
        ({"0": 1}, "color 0 outside [1, 3]", "$.edges[1].colors['0']"),
        ({"x": 1}, "color keys must be base-10 integers", "$.edges[1].colors['x']"),
        ({"1": -1}, "negative copy count", "$.edges[1].colors['1']"),
        ({"1": 1, "2": 1.5}, "expected an integer", "$.edges[1].colors['2']"),
    ])
    def test_colors(self, colors, reason, location):
        err = self.error_for({"support": [1, 2], "alpha": 0, "colors": colors})
        assert (err.reason, err.location) == (reason, location)
