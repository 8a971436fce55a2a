"""Instance/certificate model: types, admissibility, validation, serialization.

Vertices are 1-based contiguous integers; colors are 1-based indices into the
target-degree vector r in documents and 0-based in memory. Edge copies are
never materialized individually: all storage is (support, amalgam
multiplicity) classes, ``EdgeClass``, each with a map from color to a nonzero
copy count. Documents, the verifier and the pipeline's state share that one
type, so every stage walks the colors a class holds, not all k.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, combinations, islice, repeat
from operator import getitem, itemgetter, lt

from .combinatorics import binom
from .errors import InadmissibleParameters, SchemaError, TooLarge

# Cap on C(n, h) * (k + 8), a bound on the state in slots of about 8 bytes:
# k for a class's color counts (it holds at most k nonzero ones) and 8 for its
# own overhead; the per-vertex degree counters, n * k, fit under it too. The
# largest benchmark workload (h=3, n=33, k=496) is charged 2.75 M.
MAX_STATE_SLOTS = 50_000_000

# The most failures a Report lists; a check stops looking once it has this many.
MAX_FAILURES = 20


@dataclass(frozen=True)
class Parameters:
    """Problem parameters (n, m, h, lambda, r).

    Invariants: 2 <= h <= m < n, lam >= 1, and every target degree r_j >= 1.
    A zero target degree would be an empty color class; callers should drop
    it rather than carry it through the divisibility checks. Parameters whose
    state could outgrow memory raise TooLarge (see ``check_size``).
    """

    n: int
    m: int
    h: int
    lam: int
    r: tuple[int, ...]

    def __post_init__(self):
        if not (2 <= self.h <= self.m < self.n):
            raise ValueError(f"need 2 <= h <= m < n, got h={self.h} m={self.m} n={self.n}")
        if self.lam < 1:
            raise ValueError(f"edge multiplicity must be >= 1, got {self.lam}")
        if len(self.r) < 1:
            raise ValueError("need at least one color")
        if any(rj < 1 for rj in self.r):
            raise ValueError(f"target degrees must be >= 1, got {self.r}")
        object.__setattr__(self, "r", tuple(self.r))
        check_size(self.n, self.h, self.k)

    @property
    def k(self) -> int:
        return len(self.r)


def exceeds_state_limit(scale: int, n: int, h: int) -> bool:
    """True if scale * C(n, h) tops MAX_STATE_SLOTS.

    C(n, h) is built one factor at a time, and the count stops once past the
    cap, so even astronomically large n and h are answered at once.
    """
    size = scale
    for i in range(min(h, n - h)):
        size = size * (n - i) // (i + 1)
        if size > MAX_STATE_SLOTS:
            return True
    return size > MAX_STATE_SLOTS


def check_size(n: int, h: int, k: int) -> None:
    """Raise TooLarge if the state bound, C(n, h) * (k + 8) slots, tops MAX_STATE_SLOTS."""
    if exceeds_state_limit(k + 8, n, h):
        raise TooLarge(f"n={n}, h={h}, k={k}: C(n,h) * (k + 8) exceeds the state "
                       f"limit of {MAX_STATE_SLOTS} slots")


@dataclass(slots=True)
class EdgeClass:
    """An orbit of edge copies: a support set plus amalgam-vertex slots.

    ``support`` is a strictly increasing vertex tuple, ``amalgam`` the number
    of edge slots sitting on the merged placeholder vertex, so
    len(support) + amalgam equals the uniformity h. ``colors`` maps a 0-based
    color index to the copies of that color and holds no zero entries, so a
    class costs its nonzero counts, not k. Every copy a class holds is
    colored: a class still to be colored has an empty map. Instances,
    certificates and the pipeline's mid-run state all hold this one type.
    """

    support: tuple[int, ...]
    amalgam: int
    colors: dict[int, int]

    def key(self) -> tuple[tuple[int, ...], int]:
        return (self.support, self.amalgam)

    def total(self) -> int:
        return sum(self.colors.values())


@dataclass
class Instance:
    """A fully colored lambda K_m^h together with its parameters."""

    params: Parameters
    coloring: list[EdgeClass]


@dataclass
class Certificate:
    """A fully colored lambda K_n^h extending some instance, plus a report."""

    params: Parameters
    coloring: list[EdgeClass]
    report: dict | None = None


@dataclass
class Report:
    """The failures a check found, each ``{"kind": ..., "detail": ...}``; it passes with none.

    ``validate_instance`` and ``verify.verify_certificate`` both return one.
    """

    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"pass": self.ok, "failures": self.failures}


def require_admissible(params: Parameters) -> None:
    """Raise InadmissibleParameters naming the first necessary condition that fails.

    Every color class of an r_j-factor of lambda K_n^h has r_j * n / h edge
    copies, so h must divide r_j * n; and the color degrees at a vertex must
    sum to the full degree lambda * C(n-1, h-1).
    """
    n, h = params.n, params.h
    for j, rj in enumerate(params.r, start=1):
        if rj * n % h:
            raise InadmissibleParameters(f"h={h} does not divide r_{j}·n = {rj}·{n}")
    full = params.lam * binom(n - 1, h - 1)
    if sum(params.r) != full:
        raise InadmissibleParameters(f"r sums to {sum(params.r)}, not lambda·C(n-1, h-1) = "
                                     f"{params.lam}·C({n - 1}, {h - 1}) = {full}")


def is_admissible(params: Parameters) -> bool:
    """True if ``require_admissible`` passes."""
    try:
        return require_admissible(params) is None
    except InadmissibleParameters:
        return False


def validate_instance(inst: Instance) -> Report:
    """Check that the coloring covers exactly lambda K_m^h within degree caps.

    Reports malformed classes; only when there is none, missing or extra edge
    copies and per-vertex per-color degrees above r_j. It lists the first
    MAX_FAILURES failures in that order and looks no further;
    ``InvalidInstance`` shows the first three.
    """
    return Report(list(islice(_instance_failures(inst), MAX_FAILURES)))


def _instance_failures(inst: Instance):
    """Yield ``validate_instance``'s failures in order, each found only when asked for."""
    p = inst.params
    malformed = False
    totals: dict[tuple[int, ...], int] = {}
    degrees = {v: [0] * p.k for v in range(1, p.m + 1)}
    for idx, cls in enumerate(inst.coloring):
        problems = []
        if cls.amalgam != 0:
            problems.append("amalgam multiplicity must be 0")
        if list(cls.support) != sorted(set(cls.support)):
            problems.append("support must be strictly increasing")
        if len(cls.support) != p.h:
            problems.append(f"support size {len(cls.support)} != h={p.h}")
        if cls.support and (cls.support[0] < 1 or cls.support[-1] > p.m):
            problems.append(f"support not within [1, {p.m}]")
        if not all(map(range(p.k).__contains__, cls.colors)):
            problems.append(f"color index outside [0, {p.k})")
        if any(c <= 0 for c in cls.colors.values()):
            problems.append("zero or negative copy count")
        if problems:
            malformed = True
            yield {"kind": "malformed_class", "detail": f"class {idx}: " + "; ".join(problems)}
            continue
        totals[cls.support] = totals.get(cls.support, 0) + sum(cls.colors.values())
        for v in cls.support:
            for j, cnt in cls.colors.items():
                degrees[v][j] += cnt
    if malformed:
        return

    # Each well-formed support is an h-subset of [1, m], so the walk meets it.
    for subset in combinations(range(1, p.m + 1), p.h):
        got = totals.get(subset, 0)
        if got != p.lam:
            yield {"kind": "missing_edges" if got < p.lam else "extra_edges",
                   "detail": f"{set(subset)} has {got} copies, expected {p.lam}"}
    for v, row in degrees.items():
        for j, (d, rj) in enumerate(zip(row, p.r), start=1):
            if d > rj:
                yield {"kind": "degree_cap_exceeded",
                       "detail": f"vertex {v} has degree {d} in color {j}, cap {rj}"}


# ---------------------------------------------------------------------------
# Canonical JSON documents
#
# Instance:    {"n":..,"m":..,"h":..,"lambda":..,"r":[..],"edges":[..]}
# Certificate: same keys plus a trailing "report" object.
# Edge entry:  {"support":[..],"alpha":0,"colors":{"<j>":count,..}}
#
# Canonical form: classes merged per (support, alpha) and sorted by support
# then alpha; color maps carry only nonzero counts with numerically ascending
# keys. Unknown fields are rejected.
# ---------------------------------------------------------------------------

_INSTANCE_KEYS = ("n", "m", "h", "lambda", "r", "edges")
_EDGE_KEYS = ("support", "alpha", "colors")
_EDGE_KEY_SET = frozenset(_EDGE_KEYS)
_FIELD_GETTERS = tuple(map(itemgetter, _EDGE_KEYS))


def _require_int(value, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError("expected an integer", location)
    return value


def _parse_params(doc: dict) -> Parameters:
    n = _require_int(doc["n"], "$.n")
    m = _require_int(doc["m"], "$.m")
    h = _require_int(doc["h"], "$.h")
    lam = _require_int(doc["lambda"], "$.lambda")
    r_raw = doc["r"]
    if not isinstance(r_raw, list):
        raise SchemaError("expected a list", "$.r")
    r = tuple(_require_int(x, f"$.r[{i}]") for i, x in enumerate(r_raw))
    try:
        return Parameters(n=n, m=m, h=h, lam=lam, r=r)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


class _BadField(Exception):
    """A failed edge-entry check: the reason, and the field's path inside the entry."""


def _parse_edges(doc: dict, params: Parameters, max_vertex: int) -> list[EdgeClass]:
    """The edge classes of a document, merged per support, sorted, with no zero counts.

    An array in ``extend``'s order is decided in bulk (``_canonical_edges``).
    Any other is walked entry by entry (``_walk_edges``): the walk merges and
    sorts a valid document, and names the first error of a damaged one. Color
    labels are checked once per distinct label present, so the cost follows
    the labels a document holds, not k.
    """
    entries = doc["edges"]
    if not isinstance(entries, list):
        raise SchemaError("expected a list", "$.edges")
    classes = _canonical_edges(entries, params, max_vertex)
    return classes if classes is not None else _walk_edges(entries, params, max_vertex)


def _canonical_edges(entries: list, params: Parameters, max_vertex: int) -> list[EdgeClass] | None:
    """The classes of ``entries`` if each test below passes on the whole array, else None.

    The tests run at C speed over columns of the array: every entry is an
    object of exactly the three fields, every support a list of h ascending
    ints in [1, max_vertex], every alpha the int 0, every color map nonempty
    with int counts >= 1 under labels in [1, k], and the supports strictly
    ascending, the order ``extend`` writes. ``type(v) is int`` rejects true
    and 1.0, which compare equal to 1. A document that fails any test, valid
    or not (out of order or with a repeated support, say), is left to the walk.
    """
    if not entries:
        return []
    if not ({dict}.issuperset(map(type, entries)) and {3}.issuperset(map(len, entries))):
        return None
    try:
        supports, alphas, maps = (list(map(get, entries)) for get in _FIELD_GETTERS)
    except KeyError:
        return None
    h = params.h
    if not ({list}.issuperset(map(type, supports)) and {h}.issuperset(map(len, supports))):
        return None
    vertices = list(chain.from_iterable(supports))
    columns = [vertices[i::h] for i in range(h)]   # column i holds each support's i-th vertex
    if not ({int}.issuperset(map(type, vertices))
            and all(all(map(lt, low, high)) for low, high in zip(columns, columns[1:]))
            and min(columns[0]) >= 1 and max(columns[-1]) <= max_vertex
            and all(map(lt, supports, supports[1:]))
            and {int}.issuperset(map(type, alphas)) and not any(alphas)
            and {dict}.issuperset(map(type, maps)) and all(maps)):
        return None
    del vertices, columns, alphas   # dropped once checked, so they add nothing to the peak
    labels = list(chain.from_iterable(maps))
    one_color = len(labels) == len(maps)   # no map is empty, so each holds exactly one
    counts = (list(map(getitem, maps, labels)) if one_color
              else list(chain.from_iterable(map(dict.values, maps))))
    if not ({int}.issuperset(map(type, counts)) and min(counts) >= 1):
        return None
    try:
        color_of = {label: _color_index(label, params.k) for label in set(labels)}
    except _BadField:
        return None
    colors = ([{color_of[label]: cnt} for label, cnt in zip(labels, counts)] if one_color
              else [{color_of[label]: cnt for label, cnt in labelled.items()} for labelled in maps])
    del labels, counts, maps
    return list(map(EdgeClass, map(tuple, supports), repeat(0), colors))


def _walk_edges(entries: list, params: Parameters, max_vertex: int) -> list[EdgeClass]:
    """``_parse_edges`` one entry at a time: the only path that raises SchemaError.

    A failed check names the field's path inside its entry, and the full
    ``$.edges[i]...`` location is formatted only then. JSON integers parse as
    ``int`` and true/false as ``bool``, so ``type(v) is int`` is exactly
    ``_require_int``'s test.
    """
    color_of: dict[str, int] = {}   # the color labels met so far, as 0-based colors
    merged: dict[tuple[int, ...], dict[int, int]] = {}
    for idx, entry in enumerate(entries):
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
            for i, v in enumerate(support):   # first a bad type, then a vertex out of range
                if type(v) is not int:
                    raise _BadField("expected an integer", f".support[{i}]")
            for i, v in enumerate(support):
                if v < 1 or v > max_vertex:
                    raise _BadField(f"vertex {v} outside [1, {max_vertex}]", f".support[{i}]")
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
                    j = color_of[key] = _color_index(key, params.k)
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


def _color_index(key: str, k: int) -> int:
    """The 0-based color of label ``key``: a canonical base-10 integer in [1, k]."""
    try:
        j = int(key)
    except ValueError:
        raise _BadField("color keys must be base-10 integers", f".colors[{key!r}]") from None
    if str(j) != key or not (1 <= j <= k):
        raise _BadField(f"color {key} outside [1, {k}]", f".colors[{key!r}]")
    return j - 1


def _parse_document(text: str, keys: tuple[str, ...]) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:   # bad syntax, digits or nesting
        raise SchemaError(f"not valid JSON: {exc}", "$") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object", "$")
    unknown = set(doc) - set(keys)
    if unknown:
        raise SchemaError(f"unknown fields {sorted(unknown)}", "$")
    for key in keys:
        if key not in doc:
            raise SchemaError(f"missing field {key!r}", "$")
    return doc


def parse_instance(text: str) -> Instance:
    """Parse and canonicalize an instance document; raises SchemaError."""
    doc = _parse_document(text, _INSTANCE_KEYS)
    params = _parse_params(doc)
    coloring = _parse_edges(doc, params, max_vertex=params.m)
    return Instance(params=params, coloring=coloring)


def parse_certificate(text: str) -> Certificate:
    """Parse and canonicalize a certificate document; raises SchemaError."""
    doc = _parse_document(text, _INSTANCE_KEYS + ("report",))
    params = _parse_params(doc)
    coloring = _parse_edges(doc, params, max_vertex=params.n)
    report = doc["report"]
    if not isinstance(report, dict):
        raise SchemaError("expected an object", "$.report")
    return Certificate(params=params, coloring=coloring, report=report)


def _edges_text(coloring: list[EdgeClass]) -> str:
    """The canonical ``edges`` array as JSON text, written one class at a time."""
    merged: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}
    for cls in coloring:
        key, more = cls.key(), cls.colors
        counts = merged.get(key)
        merged[key] = more if counts is None else {   # a repeated class: sum into a new map
            j: counts.get(j, 0) + more.get(j, 0) for j in counts.keys() | more.keys()}
    entries = []
    for (support, alpha), counts in sorted(merged.items()):
        colors = ",".join([f'"{j + 1}":{cnt}' for j, cnt in sorted(counts.items()) if cnt])
        if colors:
            vertices = ",".join(map(str, support))
            entries.append(f'{{"support":[{vertices}],"alpha":{alpha},"colors":{{{colors}}}}}')
    return f"[{','.join(entries)}]"


def _params_text(params: Parameters) -> str:
    """The parameters as a JSON object's text, left open for the fields that follow."""
    return json.dumps({"n": params.n, "m": params.m, "h": params.h, "lambda": params.lam,
                       "r": list(params.r)}, separators=(",", ":"))[:-1]


def serialize_instance(inst: Instance) -> str:
    """Canonical single-line JSON; round-trips through parse_instance.

    The edge classes are written as text, in the bytes ``json.dumps`` gives.
    """
    return f'{_params_text(inst.params)},"edges":{_edges_text(inst.coloring)}}}\n'


def serialize_certificate(cert: Certificate) -> str:
    """Canonical single-line JSON; round-trips through parse_certificate.

    Edges are written as in ``serialize_instance``; the report goes through ``json.dumps``.
    """
    report = json.dumps(cert.report if cert.report is not None else {}, separators=(",", ":"))
    return f'{_params_text(cert.params)},"edges":{_edges_text(cert.coloring)},"report":{report}}}\n'
