"""Unit tests for the instance model, validation, and serialization."""
from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from hyperfactor import cli
from hyperfactor.combinatorics import binom
from hyperfactor.errors import InadmissibleParameters, SchemaError, TooLarge
from hyperfactor.generate import random_instance
from hyperfactor.model import (
    MAX_FAILURES,
    Certificate,
    EdgeClass,
    Instance,
    Parameters,
    Report,
    is_admissible,
    require_admissible,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
    validate_instance,
)
from hyperfactor.pipeline import extend_instance
from hyperfactor.verify import verify_certificate

from conftest import make_instance
from test_pipeline import GOLDEN_CERTIFICATES


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
        assert require_admissible(Parameters(n=9, m=3, h=3, lam=1, r=(1,) * 28)) is None
        assert binom(8, 2) == 28

    def test_wrong_sum_rejected(self):
        assert not is_admissible(Parameters(n=4, m=2, h=2, lam=1, r=(1, 1)))

    @pytest.mark.parametrize("params, message", [
        (Parameters(n=10, m=3, h=3, lam=1, r=(3, 1, 2) + (1,) * 32),
         "h=3 does not divide r_2·n = 1·10"),   # the first such color; r_3 fails too
        (Parameters(n=4, m=2, h=2, lam=1, r=(1, 1)),
         "r sums to 2, not lambda·C(n-1, h-1) = 1·C(3, 1) = 3"),
        (Parameters(n=5, m=2, h=2, lam=1, r=(2, 2, 2)),   # h divides each r_j * n
         "r sums to 6, not lambda·C(n-1, h-1) = 1·C(4, 1) = 4"),
    ], ids=["divisibility", "sum", "sum-after-divisibility"])
    def test_the_error_names_what_fails(self, params, message):
        assert not is_admissible(params)
        with pytest.raises(InadmissibleParameters) as info:
            require_admissible(params)
        assert str(info.value) == message

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
        assert report.failures[0]["kind"] == "extra_edges"

    def test_missing_edges(self):
        inst = make_instance(4, 3, 2, 1, (1, 1, 1),
                             {(1, 2): {1: 1}, (1, 3): {2: 1}})
        report = validate_instance(inst)
        assert any(f["kind"] == "missing_edges" for f in report.failures)

    def test_degree_cap_exceeded(self):
        inst = make_instance(6, 3, 2, 1, (2, 2, 1),
                             {(1, 2): {1: 1}, (1, 3): {1: 1}, (2, 3): {3: 1}})
        # color 3 at cap 1 is fine; now overload color 3
        bad = make_instance(6, 3, 2, 1, (1, 2, 2),
                            {(1, 2): {1: 1}, (1, 3): {1: 1}, (2, 3): {2: 1}})
        assert validate_instance(inst).ok
        report = validate_instance(bad)
        assert not report.ok
        assert report.failures[0]["kind"] == "degree_cap_exceeded"
        assert "vertex 1" in report.failures[0]["detail"]

    def test_double_copies_within_cap(self):
        inst = make_instance(6, 3, 2, 2, (2, 2, 2, 2, 2),
                             {(1, 2): {1: 2}, (1, 3): {2: 2}, (2, 3): {3: 2}})
        assert validate_instance(inst).ok

    def test_malformed_class(self):
        inst = make_instance(4, 2, 2, 1, (1, 1, 1), {(1, 2): {1: 1}})
        inst.coloring[0].amalgam = 1
        report = validate_instance(inst)
        assert not report.ok
        assert report.failures[0]["kind"] == "malformed_class"

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
        assert [f["kind"] for f in report.failures] == ["malformed_class"]
        assert report.failures[0]["detail"] == f"class 0: {problem}"

    @pytest.mark.parametrize("support, problem", [
        ((2, 1), "support must be strictly increasing"),
        ((1,), "support size 1 != h=2"),
        ((1, 3), "support not within [1, 2]"),
    ])
    def test_support_breaking_the_invariant_is_malformed(self, support, problem):
        # A class's support is h vertices of [1, m], strictly increasing.
        inst = make_instance(4, 2, 2, 1, (1, 1, 1), {})
        inst.coloring = [EdgeClass(support=support, amalgam=0, colors={0: 1})]
        report = validate_instance(inst)
        assert [f["kind"] for f in report.failures] == ["malformed_class"]
        assert report.failures[0]["detail"] == f"class 0: {problem}"

    def test_failures_are_capped_in_order(self, tmp_path, capsys):
        # 44 850 copies are missing; the report lists the first MAX_FAILURES of them.
        inst = make_instance(400, 300, 2, 1, (1,) * 399, {})
        report = validate_instance(inst)
        assert report.failures == [
            {"kind": "missing_edges", "detail": f"{set((1, v))} has 0 copies, expected 1"}
            for v in range(2, 2 + MAX_FAILURES)]
        path = tmp_path / "no-edges.json"
        path.write_text(serialize_instance(inst))
        assert cli.main(["extend", str(path), "--force"]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid instance: missing_edges: {1, 2} has 0 copies, expected 1; "
            "missing_edges: {1, 3} has 0 copies, expected 1; "
            "missing_edges: {1, 4} has 0 copies, expected 1"]


class TestReport:
    """Both checks report in one shape, and a report passes exactly when it names no failure."""

    def test_validation_and_verification_fail_in_one_shape(self, worked_instance):
        invalid = make_instance(4, 2, 2, 1, (1, 1, 1), {(1, 2): {1: 2}})
        cert = extend_instance(worked_instance)
        assert cert.coloring[0].support == (1, 2)
        cert.coloring[0].colors = {1: 1}   # {1, 2} from color 1 to color 2: not an extension
        for report in (validate_instance(invalid), verify_certificate(cert, worked_instance)):
            doc = report.to_json()
            assert list(doc) == ["pass", "failures"] and doc["pass"] is False and doc["failures"]
            for failure in doc["failures"]:
                assert list(failure) == ["kind", "detail"]
                assert isinstance(failure["kind"], str) and isinstance(failure["detail"], str)

    def test_passes_exactly_when_no_failure_is_named(self):
        assert Report().ok and Report().to_json() == {"pass": True, "failures": []}
        failure = {"kind": "extra_edges", "detail": "{1, 2} has 2 copies, expected 1"}
        assert not Report([failure]).ok
        assert Report([failure]).to_json() == {"pass": False, "failures": [failure]}


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

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_non_integer_target_degree_is_located(self, bad):
        doc = json.loads(WORKED_DOC)
        doc["r"] = [1, 1, 1, bad, 1]
        with pytest.raises(SchemaError) as err:
            parse_instance(json.dumps(doc))
        assert (err.value.reason, err.value.location) == ("expected an integer", "$.r[3]")

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


def reference_edges_payload(coloring: list[EdgeClass]) -> list[dict]:
    merged: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}
    for cls in coloring:
        key, more = cls.key(), cls.colors
        counts = merged.get(key)
        merged[key] = more if counts is None else {   # a repeated class: sum into a new map
            j: counts.get(j, 0) + more.get(j, 0) for j in counts.keys() | more.keys()}
    payload = []
    for (support, alpha), counts in sorted(merged.items()):
        colors = {str(j + 1): cnt for j, cnt in sorted(counts.items()) if cnt}
        if colors:
            payload.append({"support": list(support), "alpha": alpha, "colors": colors})
    return payload


def reference_text(params: Parameters, coloring: list[EdgeClass], report=None) -> str:
    """The canonical document as ``json.dumps`` writes it whole; a report makes a certificate.

    The oracle for the serializers, which write the edge classes as text.
    """
    doc = {"n": params.n, "m": params.m, "h": params.h, "lambda": params.lam,
           "r": list(params.r), "edges": reference_edges_payload(coloring)}
    if report is not None:
        doc["report"] = report
    return json.dumps(doc, separators=(",", ":")) + "\n"


class TestSerializerReference:
    """Both serializers write the bytes ``reference_text`` writes."""

    @staticmethod
    def check(params, coloring, report):
        assert serialize_instance(Instance(params, coloring)) == reference_text(params, coloring)
        assert (serialize_certificate(Certificate(params, coloring, report))
                == reference_text(params, coloring, report))

    def test_hand_built_coloring(self):
        coloring = [
            EdgeClass(support=(2, 3), amalgam=0, colors={3: 1, 0: 1}),
            EdgeClass(support=(1, 2), amalgam=1, colors={2: 1, 0: 1}),
            EdgeClass(support=(1, 2), amalgam=0, colors={1: 1}),
            EdgeClass(support=(2, 3), amalgam=0, colors={0: 1, 2: 0}),   # repeated, a zero count
            EdgeClass(support=(1, 3), amalgam=0, colors={1: 0, 2: 0}),   # all zero: left out
            EdgeClass(support=(1, 2), amalgam=0, colors={1: 1, 3: 2}),
        ]
        params = Parameters(n=5, m=3, h=2, lam=3, r=(3, 3, 3, 3))
        self.check(params, coloring, {"pass": False, "failures": [{"kind": "x", "detail": "é"}]})
        self.check(params, [], {})

    @pytest.mark.parametrize("params, seed", [golden[:2] for golden in GOLDEN_CERTIFICATES])
    def test_golden_certificates(self, params, seed):
        inst = random_instance(params, seed=seed)
        cert = extend_instance(inst, seed=seed)
        self.check(params, inst.coloring, {})
        self.check(params, cert.coloring, verify_certificate(cert, inst).to_json())

    @pytest.mark.parametrize("coloring", [
        [EdgeClass((1, 2), 0, {0: 1}), EdgeClass((1, 3), 0, {1: 1}),
         EdgeClass((1, 3), 0, {1: 2, 3: 1}), EdgeClass((2, 3), 0, {2: 3})],   # a key repeated
        [EdgeClass((2, 3), 0, {2: 3}), EdgeClass((1, 3), 1, {0: 1}),
         EdgeClass((1, 3), 0, {1: 1}), EdgeClass((1, 2), 0, {0: 1, 3: 2})],   # reversed
        [EdgeClass((1, 2), 0, {0: 1}), EdgeClass((1, 3), 0, {1: 0, 2: 0}),
         EdgeClass((2, 3), 0, {2: 3})],                                       # an all-zero class
    ], ids=["repeated", "reversed", "all-zero"])
    def test_grouping(self, coloring):
        params = Parameters(n=5, m=3, h=2, lam=3, r=(3, 3, 3, 3))
        self.check(params, coloring, {"pass": True, "failures": []})


class TestOneCopyInMemory:
    """Parsing or writing a certificate holds about one copy of it.

    Peaks are traced allocations (tracemalloc) on ones-certificates, after a
    warm-up call. A parse must decode the whole document, so its peak is
    bounded by the decoded document's own: a parse that kept the document
    beside the classes it builds peaked at 1.66-1.77x ``json.loads``'s peak
    on the same text. (The document alone is 1.5x the certificate the parse
    returns on Python 3.11 and 1.8x on 3.10.) A serializer that built the
    whole array's text and then copied it into the document peaked above 5x
    the text.
    """

    @pytest.fixture(scope="class", params=[(2, 15, 60), (3, 6, 21)], ids=["h2-n60", "h3-n21"])
    def text(self, request):
        h, m, n = request.param
        inst = random_instance(Parameters(n=n, m=m, h=h, lam=1, r=(1,) * binom(n - 1, h - 1)),
                               seed=1)
        cert = extend_instance(inst, seed=1)
        cert.report = verify_certificate(cert, inst).to_json()
        return serialize_certificate(cert)

    @staticmethod
    def traced(call, arg):
        call(arg)   # warm-up: what the first call creates lazily is not the call's own
        tracemalloc.start()
        try:
            result = call(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    def test_parse_peak_is_at_most_1_2x_the_decoded_document(self, text):
        cert, peak = self.traced(parse_certificate, text)
        _, decoded_peak = self.traced(json.loads, text)
        assert serialize_certificate(cert) == text
        assert peak <= 1.2 * decoded_peak, (peak, decoded_peak)

    def test_serialize_peak_is_at_most_5x_the_text(self, text):
        written, peak = self.traced(serialize_certificate, parse_certificate(text))
        assert written == text
        assert peak <= 5 * len(text), (peak, len(text))


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
        ([2, 3], "vertex 3 outside [1, 2]", "$.edges[1].support[1]"),   # m, then a vertex past it
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


def nested_paths(node, path=()):
    """The path of every value below ``node``: dict keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from nested_paths(value, path + (key,))


# One value of each JSON kind; the hypothesis test draws more of each.
FIXED_REPLACEMENTS = (0, -1, 10**40, True, False, None, "", "1", [], [1, 2], {}, {"1": 1})
REPLACEMENTS = st.one_of(
    st.sampled_from([0, -1, 10**40]), st.booleans(), st.none(), st.text(max_size=3),
    st.lists(st.integers(-1, 5), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2))


def replaced(doc, path, value):
    """A deep copy of ``doc`` with the value at ``path`` replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def parse_raises_only_documented_errors(parse, doc):
    try:
        parse(json.dumps(doc))
    except (SchemaError, TooLarge):
        pass


class TestStrictParserFuzz:
    """A document with any nested value replaced raises only a documented error.

    SchemaError is exit 4 and TooLarge exit 2; anything else escaping the
    parser would be a traceback.
    """

    @pytest.fixture(scope="class")
    def documents(self):
        inst = parse_instance(WORKED_DOC)
        cert = extend_instance(inst)
        cert = Certificate(params=cert.params, coloring=cert.coloring,
                           report={"pass": True, "failures": []})
        return {parse_instance: json.loads(WORKED_DOC),
                parse_certificate: json.loads(serialize_certificate(cert))}

    def test_every_single_replacement(self, documents):
        for parse, doc in documents.items():
            for path in nested_paths(doc):
                for value in FIXED_REPLACEMENTS:
                    parse_raises_only_documented_errors(parse, replaced(doc, path, value))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_replaced_values_raise_only_documented_errors(self, documents, data):
        parse = data.draw(st.sampled_from(list(documents)))
        doc = documents[parse]
        for _ in range(data.draw(st.integers(1, 3), label="replacements")):
            path = data.draw(st.sampled_from(list(nested_paths(doc))), label="path")
            doc = replaced(doc, path, data.draw(REPLACEMENTS, label="value"))
        parse_raises_only_documented_errors(parse, doc)
