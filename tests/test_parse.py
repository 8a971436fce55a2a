"""The edge parser against the entry walk it was before it decided in bulk.

``reference_parse`` is a verbatim copy of that walk (then ``model._parse_edges``
and ``model._color_index``). Every document, canonical, valid but not
canonical, or damaged, must parse to the classes the reference returns or
raise the (reason, location) it raises.
"""
from __future__ import annotations

import json
import random
import tracemalloc

import pytest

from hyperfactor import model
from hyperfactor.cli import build_r_vector
from hyperfactor.errors import SchemaError
from hyperfactor.generate import random_instance
from hyperfactor.model import (
    Certificate,
    EdgeClass,
    Parameters,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
)
from hyperfactor.pipeline import extend_instance

_EDGE_KEYS = ("support", "alpha", "colors")
_EDGE_KEY_SET = frozenset(_EDGE_KEYS)


class _BadField(Exception):
    """A failed edge-entry check: the reason, and the field's path inside the entry."""


def reference_parse(doc: dict, params: Parameters, max_vertex: int) -> list[EdgeClass]:
    """The edge classes of a document, merged per support, with no zero counts.

    A failed check names the field's path inside its entry, and the full
    ``$.edges[i]...`` location is formatted only then. JSON integers parse as
    ``int`` and true/false as ``bool``, so ``type(v) is int`` is exactly
    ``_require_int``'s test.
    """
    edges_raw = doc["edges"]
    if not isinstance(edges_raw, list):
        raise SchemaError("expected a list", "$.edges")

    color_of: dict[str, int] = {}   # the color labels met so far, as 0-based colors
    merged: dict[tuple[int, ...], dict[int, int]] = {}
    for idx, entry in enumerate(edges_raw):
        try:
            if type(entry) is not dict:
                raise _BadField("expected an object", "")
            if entry.keys() != _EDGE_KEY_SET:
                unknown = set(entry) - _EDGE_KEY_SET
                missing = [key for key in _EDGE_KEYS if key not in entry]
                raise _BadField(f"unknown fields {sorted(unknown)}" if unknown
                                else f"missing field {missing[0]!r}", "")
            support = entry["support"]
            if type(support) is not list:
                raise _BadField("expected a list", ".support")
            for v in support:   # a bad support is walked again: first bad type, then range
                if type(v) is not int or v < 1 or v > max_vertex:
                    for i, u in enumerate(support):
                        if type(u) is not int:
                            raise _BadField("expected an integer", f".support[{i}]")
                    for i, u in enumerate(support):
                        if u < 1 or u > max_vertex:
                            raise _BadField(f"vertex {u} outside [1, {max_vertex}]",
                                            f".support[{i}]")
            support = tuple(sorted(support))
            if len(set(support)) != len(support):
                raise _BadField("repeated vertex in support", ".support")
            alpha = entry["alpha"]
            if type(alpha) is not int:
                raise _BadField("expected an integer", ".alpha")
            if alpha != 0:
                raise _BadField("alpha must be 0 in instance/certificate documents", ".alpha")
            if len(support) != params.h:
                raise _BadField(f"support size {len(support)} != h={params.h}", ".support")
            colors = entry["colors"]
            if type(colors) is not dict:
                raise _BadField("expected an object", ".colors")

            counts = merged.get(support)
            if counts is None:
                counts = merged[support] = {}
            for key, cnt in colors.items():
                j = color_of.get(key)
                if j is None:
                    j = color_of[key] = reference_color_index(key, params.k)
                if type(cnt) is not int:
                    raise _BadField("expected an integer", f".colors[{key!r}]")
                if cnt < 0:
                    raise _BadField("negative copy count", f".colors[{key!r}]")
                if cnt:
                    counts[j] = counts.get(j, 0) + cnt
        except _BadField as bad:
            reason, path = bad.args
            raise SchemaError(reason, f"$.edges[{idx}]{path}") from None

    return [EdgeClass(support=s, amalgam=0, colors=merged[s]) for s in sorted(merged) if merged[s]]


def reference_color_index(key: str, k: int) -> int:
    """The 0-based color of label ``key``: a canonical base-10 integer in [1, k]."""
    try:
        j = int(key)
    except ValueError:
        raise _BadField("color keys must be base-10 integers", f".colors[{key!r}]") from None
    if str(j) != key or not (1 <= j <= k):
        raise _BadField(f"color {key} outside [1, {k}]", f".colors[{key!r}]")
    return j - 1


def package_outcome(text: str, certificate: bool):
    """The classes the package parses from ``text``, or its error's (reason, location)."""
    try:
        return (parse_certificate if certificate else parse_instance)(text).coloring
    except SchemaError as err:
        return err.reason, err.location


def reference_outcome(text: str, certificate: bool):
    """The classes ``reference_parse`` returns for ``text``, or its error's (reason, location)."""
    doc = json.loads(text)
    params = model._parse_params(doc)
    try:
        return reference_parse(doc, params, params.n if certificate else params.m)
    except SchemaError as err:
        return err.reason, err.location


def documents(h, m, n, lam, r_pattern, seed=1) -> tuple[str, str]:
    """The canonical texts of a generated instance and of its certificate."""
    params = Parameters(n=n, m=m, h=h, lam=lam, r=build_r_vector(r_pattern, n, h, lam))
    inst = random_instance(params, seed=seed)
    cert = extend_instance(inst, seed=seed)
    return (serialize_instance(inst),
            serialize_certificate(Certificate(params, cert.coloring, {"pass": True, "failures": []})))


# name: ((h, m, n, lambda, r pattern), certificate?). k159 has k = 159 colors and
# entries with several colors; single has one color per entry; h3 has
# three-vertex supports; k159-instance caps vertices at m, not n.
BASES = {"k159": ((2, 6, 54, 3, "ones"), True), "k159-instance": ((2, 6, 54, 3, "ones"), False),
         "single": ((2, 4, 16, 1, "ones"), True), "h3": ((3, 3, 9, 1, "ones"), True)}


@pytest.fixture(scope="module")
def bases() -> dict[str, tuple[dict, bool]]:
    """Each base's canonical document, parsed as JSON, and whether it is a certificate."""
    texts = {cell: documents(*cell) for cell, _ in BASES.values()}
    return {name: (json.loads(texts[cell][certificate]), certificate)
            for name, (cell, certificate) in BASES.items()}


def entry_change(change):
    """A change to the whole edges array made of ``change(entry, top, k)`` at position p."""
    def apply(edges, p, top, k, rng):
        edges[p] = change(edges[p], top, k)
    return apply


def relabeled(label):
    """The entry with its first color label replaced by ``label(k)``."""
    return entry_change(lambda e, top, k: {**e, "colors": dict(
        (label(k) if i == 0 else key, cnt) for i, (key, cnt) in enumerate(e["colors"].items()))})


def recounted(count):
    """The entry with its last copy count replaced by ``count``."""
    return entry_change(lambda e, top, k: {**e, "colors": {**e["colors"],
                                                             list(e["colors"])[-1]: count}})


def unused_vertex(support, top):
    return min(set(range(1, top + 1)) - set(support))


def unused_label(colors, k):
    return next(str(j) for j in range(1, k + 1) if str(j) not in colors)


DAMAGES = {
    "support True first": entry_change(lambda e, top, k: {**e, "support": [True] + e["support"][1:]}),
    "support True last": entry_change(lambda e, top, k: {**e, "support": e["support"][:-1] + [True]}),
    "support 1.0": entry_change(lambda e, top, k: {**e, "support": [1.0] + e["support"][1:]}),
    "support '2'": entry_change(lambda e, top, k: {**e, "support": e["support"][:-1] + ["2"]}),
    "top, then past top": entry_change(
        lambda e, top, k: {**e, "support": e["support"][:-2] + [top, top + 1]}),
    "past top, then top": entry_change(
        lambda e, top, k: {**e, "support": e["support"][:-2] + [top + 1, top]}),
    "vertex 0": entry_change(lambda e, top, k: {**e, "support": [0] + e["support"][1:]}),
    "repeated vertex": entry_change(
        lambda e, top, k: {**e, "support": e["support"][:-1] + e["support"][-2:-1]}),
    "short support": entry_change(lambda e, top, k: {**e, "support": e["support"][:-1]}),
    "long support": entry_change(lambda e, top, k: {
        **e, "support": e["support"] + [unused_vertex(e["support"], top)]}),
    "support an object": entry_change(lambda e, top, k: {**e, "support": {"1": 1, "2": 2}}),
    "support a string": entry_change(lambda e, top, k: {**e, "support": "12"}),
    "support an integer": entry_change(lambda e, top, k: {**e, "support": 1}),
    "alpha False": entry_change(lambda e, top, k: {**e, "alpha": False}),
    "alpha 1": entry_change(lambda e, top, k: {**e, "alpha": 1}),
    "alpha 0.0": entry_change(lambda e, top, k: {**e, "alpha": 0.0}),
    "label 01": relabeled(lambda k: "01"),
    "label 0": relabeled(lambda k: "0"),
    "label k+1": relabeled(lambda k: str(k + 1)),
    "label x": relabeled(lambda k: "x"),
    "count -1": recounted(-1),
    "count 1.5": recounted(1.5),
    "count 1.0": recounted(1.0),
    "count True": recounted(True),
    "missing alpha": entry_change(lambda e, top, k: {"support": e["support"], "colors": e["colors"]}),
    "missing colors": entry_change(lambda e, top, k: {"support": e["support"], "alpha": 0}),
    "extra field": entry_change(lambda e, top, k: {**e, "weight": 1}),
    "not an object": entry_change(lambda e, top, k: [e["support"]]),
    "colors not an object": entry_change(lambda e, top, k: {**e, "colors": [1]}),
}


def split(edges, p, top, k, rng):
    """Entry p's colors spread over it and a second entry with its support, placed anywhere."""
    entry = edges[p]
    items = list(entry["colors"].items())
    if len(items) > 1:
        first, rest = dict(items[:1]), dict(items[1:])
    elif items[0][1] > 1:
        (label, cnt), = items
        first, rest = {label: 1}, {label: cnt - 1}
    else:
        first, rest = dict(items), {unused_label(entry["colors"], k): 0}
    edges[p] = {**entry, "colors": first}
    edges.insert(rng.randrange(len(edges) + 1), {**entry, "colors": rest})


def moved(edges, p, top, k, rng):
    edges.insert(rng.randrange(len(edges)), edges.pop(p))


def shuffled(edges, p, top, k, rng):
    rng.shuffle(edges)


def emptied(edges, p, top, k, rng):
    edges.clear()


VALID_CHANGES = {
    "descending support": entry_change(lambda e, top, k: {**e, "support": e["support"][::-1]}),
    "zero count": entry_change(lambda e, top, k: {
        **e, "colors": {**e["colors"], unused_label(e["colors"], k): 0}}),
    "colors reordered": entry_change(lambda e, top, k: {
        **e, "colors": dict(reversed(e["colors"].items()))}),
    "colors emptied": entry_change(lambda e, top, k: {**e, "colors": {}}),
    "counts zeroed": entry_change(lambda e, top, k: {**e, "colors": dict.fromkeys(e["colors"], 0)}),
    "empty colors copy": lambda edges, p, top, k, rng: edges.insert(p, {**edges[p], "colors": {}}),
    "split": split,
    "moved": moved,
    "shuffled": shuffled,
    "empty edges": emptied,
}
CHANGES = {**DAMAGES, **VALID_CHANGES}


def changed(doc: dict, certificate: bool, steps, rng) -> str:
    """``doc``'s text after each (change, where) step, where in [0, 1] places the entry."""
    doc = json.loads(json.dumps(doc))
    edges = doc["edges"]
    top, k = (doc["n"] if certificate else doc["m"]), len(doc["r"])
    for change, where in steps:
        if edges:
            CHANGES[change](edges, round(where * (len(edges) - 1)), top, k, rng)
    return json.dumps(doc)


class TestReferenceParse:
    """The bulk parser and its walk return what the walk alone returned."""

    @pytest.mark.parametrize("change", list(CHANGES))
    def test_each_change_at_first_middle_and_last_entry(self, bases, change):
        for name, (doc, certificate) in bases.items():
            for where in (0, 0.5, 1):
                text = changed(doc, certificate, [(change, where)], random.Random(name))
                want = reference_outcome(text, certificate)
                assert package_outcome(text, certificate) == want, (name, where, want)
                if change in VALID_CHANGES:
                    assert isinstance(want, list)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_mixed_changes(self, bases, seed):
        rng = random.Random(seed)
        name = rng.choice(sorted(bases))
        doc, certificate = bases[name]
        steps = [(rng.choice(sorted(CHANGES)), rng.random()) for _ in range(rng.randint(1, 3))]
        text = changed(doc, certificate, steps, rng)
        assert package_outcome(text, certificate) == reference_outcome(text, certificate), steps

    def test_canonical_documents_skip_the_walk(self, bases, monkeypatch):
        def walked(*args):
            raise AssertionError("a canonical document was walked")
        monkeypatch.setattr(model, "_walk_edges", walked)
        for doc, certificate in bases.values():
            text = json.dumps(doc)
            assert package_outcome(text, certificate) == reference_outcome(text, certificate)

    def test_label_checks_follow_the_labels_present_not_k(self):
        # k = 1 000 000: a table of every label would hold megabytes; the parse holds kilobytes.
        doc = {"n": 3, "m": 2, "h": 2, "lambda": 1, "r": [1] * 1_000_000,
               "edges": [{"support": [1, 2], "alpha": 0, "colors": {"1000000": 1}}]}
        params = model._parse_params(doc)
        tracemalloc.start()
        try:
            classes = model._parse_edges(doc, params, params.m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert classes == [EdgeClass((1, 2), 0, {999_999: 1})]
        assert peak < 100_000


ROUND_TRIP_CELLS = [
    (2, 5, 10, 1, "ones"), (2, 5, 11, 1, "uniform:2"), (2, 5, 10, 2, "ones"),
    (2, 5, 10, 2, "uniform:2"), (2, 5, 10, 3, "ones"), (2, 5, 11, 3, "uniform:2"),
    (3, 4, 15, 1, "ones"), (3, 4, 18, 1, "uniform:2"), (3, 4, 15, 2, "ones"),
    (3, 4, 15, 2, "uniform:2"), (3, 4, 15, 3, "ones"), (3, 4, 18, 3, "uniform:2"),
    (4, 4, 20, 1, "ones"), (4, 4, 18, 1, "uniform:2"), (4, 4, 20, 2, "ones"),
    (4, 4, 18, 2, "uniform:2"), (4, 4, 20, 3, "ones"), (4, 4, 18, 3, "uniform:2"),
]


@pytest.mark.parametrize("cell", ROUND_TRIP_CELLS)
def test_round_trip_and_non_canonical_copy(cell):
    """Canonical text round-trips byte for byte; a shuffled, split copy parses the same."""
    rng = random.Random(str(cell))
    for certificate, text in zip((False, True), documents(*cell, seed=rng.randrange(1000))):
        parse, serialize = ((parse_certificate, serialize_certificate) if certificate
                            else (parse_instance, serialize_instance))
        parsed = parse(text)
        assert serialize(parsed) == text
        steps = [("split", rng.random()), ("zero count", rng.random()),
                 ("descending support", rng.random()), ("colors reordered", rng.random()),
                 ("shuffled", 0)]
        assert parse(changed(json.loads(text), certificate, steps, rng)).coloring == parsed.coloring
