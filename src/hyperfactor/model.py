"""Instance/certificate model: types, admissibility, validation, serialization.

Vertices are 1-based contiguous integers; colors are 1-based indices into the
target-degree vector r. Edge copies are never materialized individually: all
storage is (support, amalgam multiplicity) classes with per-color copy counts.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, compress
from operator import add

from .combinatorics import binom
from .errors import SchemaError, TooLarge

# Cap on the dense state size C(n, h) * (k + 8): list slots of about 8 bytes
# each, the 8 standing for one class's own overhead. The largest benchmark
# workload (h=3, n=33, k=496) needs 2.75 M.
MAX_STATE_SLOTS = 50_000_000


@dataclass(frozen=True)
class Parameters:
    """Problem parameters (n, m, h, lambda, r).

    Invariants: 2 <= h <= m < n, lam >= 1, and every target degree r_j >= 1.
    A zero target degree would be an empty color class; callers should drop
    it rather than carry it through the divisibility checks. Parameters whose
    dense state would not fit in memory raise TooLarge (see ``check_size``).
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


def check_size(n: int, h: int, k: int) -> None:
    """Raise TooLarge if the dense state, C(n, h) * (k + 8) slots, tops MAX_STATE_SLOTS.

    C(n, h) is built one factor at a time, and the count stops once past the
    cap, so even astronomically large n and h are rejected at once.
    """
    size = k + 8
    for i in range(min(h, n - h)):
        size = size * (n - i) // (i + 1)
        if size > MAX_STATE_SLOTS:
            raise TooLarge(f"n={n}, h={h}, k={k}: C(n,h) * (k + 8) exceeds the state "
                           f"limit of {MAX_STATE_SLOTS} slots")


@dataclass
class EdgeClass:
    """An orbit of edge copies: a support set plus amalgam-vertex slots.

    ``support`` is a strictly increasing vertex tuple, ``amalgam`` the number
    of edge slots sitting on the merged placeholder vertex, so
    len(support) + amalgam equals the uniformity h. ``colors[j-1]`` counts
    copies colored j; ``uncolored`` counts copies not yet colored.
    """

    support: tuple[int, ...]
    amalgam: int
    colors: list[int]
    uncolored: int = 0

    def total(self) -> int:
        return sum(self.colors) + self.uncolored

    def key(self) -> tuple[tuple[int, ...], int]:
        return (self.support, self.amalgam)


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
class ValidationIssue:
    kind: str
    detail: str


@dataclass
class ValidationReport:
    ok: bool
    issues: list[ValidationIssue] = field(default_factory=list)


def is_admissible(params: Parameters) -> bool:
    """Necessary conditions for an extension to exist.

    Every color class of an r_j-factor of lambda K_n^h has r_j * n / h edge
    copies, so h must divide r_j * n; and the color degrees at a vertex must
    sum to the full degree lambda * C(n-1, h-1).
    """
    n, h = params.n, params.h
    if any((rj * n) % h != 0 for rj in params.r):
        return False
    return sum(params.r) == params.lam * binom(n - 1, h - 1)


def color_degrees(coloring: list[EdgeClass], k: int) -> dict[int, list[int]]:
    """Per-vertex per-color copy counts over the ordinary vertices."""
    degrees: dict[int, list[int]] = {}
    for cls in coloring:
        for v in cls.support:
            if v not in degrees:
                degrees[v] = [0] * k
            row = degrees[v]
            for j, cnt in enumerate(cls.colors):
                if cnt:
                    row[j] += cnt
    return degrees


def validate_instance(inst: Instance) -> ValidationReport:
    """Check that the coloring covers exactly lambda K_m^h within degree caps.

    Reports the first few violations: malformed classes, missing or extra
    edge copies, and per-vertex per-color degrees above r_j.
    """
    p = inst.params
    issues: list[ValidationIssue] = []

    totals: dict[tuple[int, ...], int] = {}
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
        if len(cls.colors) != p.k:
            problems.append(f"expected {p.k} color counts, got {len(cls.colors)}")
        if any(c < 0 for c in cls.colors) or cls.uncolored < 0:
            problems.append("negative copy count")
        if cls.uncolored:
            problems.append(f"{cls.uncolored} uncolored copies")
        if problems:
            issues.append(ValidationIssue("malformed_class", f"class {idx}: " + "; ".join(problems)))
            continue
        totals[cls.support] = totals.get(cls.support, 0) + sum(cls.colors)

    if not issues:
        for subset in combinations(range(1, p.m + 1), p.h):
            got = totals.pop(subset, 0)
            if got < p.lam:
                issues.append(ValidationIssue(
                    "missing_edges", f"{set(subset)} has {got} copies, expected {p.lam}"))
            elif got > p.lam:
                issues.append(ValidationIssue(
                    "extra_edges", f"{set(subset)} has {got} copies, expected {p.lam}"))
        for subset in totals:
            issues.append(ValidationIssue("extra_edges", f"unexpected support {set(subset)}"))

        degrees = color_degrees(inst.coloring, p.k)
        for v in sorted(degrees):
            for j, d in enumerate(degrees[v], start=1):
                if d > p.r[j - 1]:
                    issues.append(ValidationIssue(
                        "degree_cap_exceeded",
                        f"vertex {v} has degree {d} in color {j}, cap {p.r[j - 1]}"))

    return ValidationReport(ok=not issues, issues=issues)


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


def _require_int(value, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError("expected an integer", location)
    return value


def _parse_params(doc: dict, location: str = "$") -> Parameters:
    n = _require_int(doc["n"], f"{location}.n")
    m = _require_int(doc["m"], f"{location}.m")
    h = _require_int(doc["h"], f"{location}.h")
    lam = _require_int(doc["lambda"], f"{location}.lambda")
    r_raw = doc["r"]
    if not isinstance(r_raw, list):
        raise SchemaError("expected a list", f"{location}.r")
    r = tuple(_require_int(x, f"{location}.r[{i}]") for i, x in enumerate(r_raw))
    try:
        return Parameters(n=n, m=m, h=h, lam=lam, r=r)
    except ValueError as exc:
        raise SchemaError(str(exc), location) from exc


def _parse_edges(doc: dict, params: Parameters, max_vertex: int) -> list[EdgeClass]:
    edges_raw = doc["edges"]
    if not isinstance(edges_raw, list):
        raise SchemaError("expected a list", "$.edges")

    merged: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for idx, entry in enumerate(edges_raw):
        loc = f"$.edges[{idx}]"
        if not isinstance(entry, dict):
            raise SchemaError("expected an object", loc)
        unknown = set(entry) - set(_EDGE_KEYS)
        if unknown:
            raise SchemaError(f"unknown fields {sorted(unknown)}", loc)
        for key in _EDGE_KEYS:
            if key not in entry:
                raise SchemaError(f"missing field {key!r}", loc)

        support_raw = entry["support"]
        if not isinstance(support_raw, list):
            raise SchemaError("expected a list", f"{loc}.support")
        support_list = [_require_int(v, f"{loc}.support[{i}]") for i, v in enumerate(support_raw)]
        for i, v in enumerate(support_list):
            if v < 1 or v > max_vertex:
                raise SchemaError(f"vertex {v} outside [1, {max_vertex}]", f"{loc}.support[{i}]")
        support = tuple(sorted(support_list))
        if len(set(support)) != len(support):
            raise SchemaError("repeated vertex in support", f"{loc}.support")

        alpha = _require_int(entry["alpha"], f"{loc}.alpha")
        if alpha != 0:
            raise SchemaError("alpha must be 0 in instance/certificate documents", f"{loc}.alpha")
        if len(support) != params.h:
            raise SchemaError(f"support size {len(support)} != h={params.h}", f"{loc}.support")

        colors_raw = entry["colors"]
        if not isinstance(colors_raw, dict):
            raise SchemaError("expected an object", f"{loc}.colors")
        counts = merged.setdefault((support, alpha), [0] * params.k)
        for key, value in colors_raw.items():
            cloc = f"{loc}.colors[{key!r}]"
            try:
                j = int(key)
            except ValueError:
                raise SchemaError("color keys must be base-10 integers", cloc) from None
            if str(j) != key or not (1 <= j <= params.k):
                raise SchemaError(f"color {key} outside [1, {params.k}]", cloc)
            cnt = _require_int(value, cloc)
            if cnt < 0:
                raise SchemaError("negative copy count", cloc)
            counts[j - 1] += cnt

    return [
        EdgeClass(support=s, amalgam=a, colors=counts)
        for (s, a), counts in sorted(merged.items())
        if sum(counts) > 0
    ]


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


def _edges_payload(coloring: list[EdgeClass]) -> list[dict]:
    merged: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for cls in coloring:
        counts = merged.get(cls.key())
        merged[cls.key()] = cls.colors if counts is None else list(map(add, counts, cls.colors))
    labels = [str(j) for j in range(1, max(map(len, merged.values()), default=0) + 1)]
    payload = []
    for (support, alpha), counts in sorted(merged.items()):
        if sum(counts) == 0:
            continue
        payload.append({
            "support": list(support),
            "alpha": alpha,
            "colors": dict(zip(compress(labels, counts), filter(None, counts))),
        })
    return payload


def _params_payload(params: Parameters) -> dict:
    return {
        "n": params.n,
        "m": params.m,
        "h": params.h,
        "lambda": params.lam,
        "r": list(params.r),
    }


def serialize_instance(inst: Instance) -> str:
    """Canonical single-line JSON; round-trips through parse_instance."""
    doc = _params_payload(inst.params)
    doc["edges"] = _edges_payload(inst.coloring)
    return json.dumps(doc, separators=(",", ":")) + "\n"


def serialize_certificate(cert: Certificate) -> str:
    """Canonical single-line JSON; round-trips through parse_certificate."""
    doc = _params_payload(cert.params)
    doc["edges"] = _edges_payload(cert.coloring)
    doc["report"] = cert.report if cert.report is not None else {}
    return json.dumps(doc, separators=(",", ":")) + "\n"
