"""The traced run: spans around each module's public functions.

The benchmark drives the stages itself, in the order ``cmd_extend`` and
``pipeline.extend_instance`` call them, and records a span around every call
into a layer. A hook passed to ``detach.detach_step`` splits each step into a
plan part (build, witness, solve) and an apply part (apply, post-check), and
reads the step's exact sizes off the ``TransportationProblem``. Nothing in the
program is patched.

Spans named ``detach.build``, ``detach.solve`` and ``bench.hook`` are the
benchmark's own work (probe calls and counting): they are reported but left
out of the op's wall time when the uncovered share is computed.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from math import gcd
from time import perf_counter

from hyperfactor import (
    bound_holds,
    is_admissible,
    parse_certificate,
    parse_instance,
    random_instance,
    serialize_certificate,
    serialize_instance,
    validate_instance,
    verify_certificate,
)
import ops
from hyperfactor import cli
from hyperfactor.amalgam import assign_level_h, build_amalgam, finish_levels, greedy_color_level
from hyperfactor.detach import build_transportation, detach_all, detach_step, solve_transportation

# Top-level layer spans of a traced extend op, and of a traced verify op.
EXTEND_LAYERS = ("cli.parse_args", "model.parse_instance", "model.validate_instance",
                 "amalgam.build", "amalgam.levels", "amalgam.quotas", "detach.step",
                 "detach.assemble", "verify.verify_certificate", "model.serialize_certificate")
VERIFY_LAYERS = ("cli.parse_args", "model.parse_certificate", "model.parse_instance",
                 "verify.verify_certificate")
PROBES = ("detach.build", "detach.solve")


class Tracer:
    """Spans kept in memory as [op id, name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = 0

    def _open(self, name: str, start: float) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._op, name, start, start, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, end: float) -> None:
        self.spans[idx][3] = end
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name, perf_counter())
        try:
            yield
        finally:
            self._close(idx, perf_counter())

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-finished span under the open one."""
        self._close(self._open(name, start), end)

    @contextmanager
    def op(self, name: str):
        """A root span for one op; yields a dict that receives its per-name totals."""
        self._op += 1
        first = len(self.spans)
        totals: dict[str, float] = {}
        with self.span(name):
            yield totals
        for _, span_name, start, end, _ in self.spans[first:]:
            totals[span_name] = totals.get(span_name, 0.0) + end - start

    def dump(self) -> list[dict]:
        return [{"op": op, "name": name, "start": start, "end": end, "parent": parent}
                for op, name, start, end, parent in self.spans]


class StepProbe:
    """The ``detach_step`` hook: marks the plan/apply boundary and counts sizes."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts = dict.fromkeys(
            ("steps", "rows", "nz_cells", "dense_cells", "frac_cells", "flow_units",
             "classes_scanned"), 0)
        self.expected_moves = None
        self.plans_match = True
        self.step_start = 0.0
        self.hook_end = 0.0

    def __call__(self, state, tp, plan) -> None:
        hook_start = perf_counter()
        self.tracer.add("detach.plan", self.step_start, hook_start)
        q = state.weight
        k = len(tp.demands)
        c = self.counts
        c["steps"] += 1
        c["rows"] += len(tp.rows)
        c["dense_cells"] += len(tp.rows) * k
        c["flow_units"] += sum(tp.supplies)
        c["classes_scanned"] += len(state.classes)
        for (_, level), caps in zip(tp.rows, tp.caps):
            nonzero = [cap for cap in caps if cap]
            c["nz_cells"] += len(nonzero)
            # cap * level / q is fractional exactly when cap is not a multiple
            # of q / gcd(level, q).
            step = q // gcd(level, q)
            if step > 1:
                c["frac_cells"] += sum(1 for cap in nonzero if cap % step)
        if plan.moves != self.expected_moves:
            self.plans_match = False
        self.hook_end = perf_counter()
        self.tracer.add("bench.hook", hook_start, self.hook_end)


def traced_extend(tr: Tracer, inst_path: str, cert_path: str) -> tuple[dict, dict, bytes]:
    """Mirror of ``hyperfactor extend INST -o CERT`` with a span per layer call.

    Returns (span totals, exact counts, certificate bytes).
    """
    with tr.op("op.extend") as totals:
        with tr.span("cli.parse_args"):
            cli.build_parser().parse_args(["extend", inst_path, "-o", cert_path])
        with open(inst_path, encoding="utf-8") as fh:
            text = fh.read()
        with tr.span("model.parse_instance"):
            inst = parse_instance(text)
        p = inst.params
        if not is_admissible(p) or not bound_holds(p.n, p.m, p.h):
            raise ValueError(f"{inst_path}: not an admissible above-bound instance")
        with tr.span("model.validate_instance"):
            report = validate_instance(inst)
        if not report.ok:
            raise ValueError(f"{inst_path}: invalid instance")

        with tr.span("amalgam.build"):
            state = build_amalgam(inst)
        classes = len(state.classes)
        for level in range(1, p.h):
            with tr.span("amalgam.levels"):
                greedy_color_level(state, level)
        with tr.span("amalgam.quotas"):
            assign_level_h(state, finish_levels(state))

        probe = StepProbe(tr)
        while state.weight > 0:
            with tr.span("detach.build"):
                tp = build_transportation(state)
            with tr.span("detach.solve"):
                probe.expected_moves = solve_transportation(tp).moves
            with tr.span("detach.step"):
                probe.step_start = perf_counter()
                detach_step(state, hook=probe)
                tr.add("detach.apply", probe.hook_end, perf_counter())
        with tr.span("detach.assemble"):
            cert = detach_all(state)

        with tr.span("verify.verify_certificate"):
            verdict = verify_certificate(cert, inst)
        if not verdict.ok:
            raise ValueError(f"{inst_path}: produced certificate failed verification")
        cert.report = verdict.to_json()
        with tr.span("model.serialize_certificate"):
            out = serialize_certificate(cert)
        with open(cert_path, "w", encoding="utf-8") as fh:
            fh.write(out)

    counts = {f"detach.{name}": value for name, value in probe.counts.items()}
    counts["amalgam.classes"] = classes
    counts["amalgam.k"] = p.k
    if not probe.plans_match:
        raise ValueError(f"{inst_path}: detach_step planned differently from solve_transportation")
    return totals, counts, out.encode("utf-8")


def traced_verify(tr: Tracer, cert_path: str, inst_path: str) -> tuple[dict, dict, str]:
    """Mirror of ``hyperfactor verify CERT INST``; returns (span totals, counts, stdout)."""
    with tr.op("op.verify") as totals:
        with tr.span("cli.parse_args"):
            cli.build_parser().parse_args(["verify", cert_path, inst_path])
        with open(cert_path, encoding="utf-8") as fh:
            cert_text = fh.read()
        with tr.span("model.parse_certificate"):
            cert = parse_certificate(cert_text)
        with open(inst_path, encoding="utf-8") as fh:
            inst_text = fh.read()
        with tr.span("model.parse_instance"):
            inst = parse_instance(inst_text)
        with tr.span("verify.verify_certificate"):
            verdict = verify_certificate(cert, inst)
        out = json.dumps(verdict.to_json(), separators=(",", ":")) + "\n"
    counts = {"verify.subsets": len(cert.coloring),
              "model.cert_bytes": len(cert_text.encode("utf-8"))}
    return totals, counts, out


def traced_generate(tr: Tracer, case) -> tuple[float, str]:
    """``random_instance`` for the case; returns (seconds, serialized instance)."""
    params = case.params()
    with tr.op("op.generate") as totals:
        with tr.span("generate.random_instance"):
            inst = random_instance(params, seed=case.seed)
    return totals["generate.random_instance"], serialize_instance(inst)


def traced_sweep_cell(tr: Tracer, case) -> tuple[str | None, float]:
    """``cli.run_sweep_cell`` for the case; returns (failure, seconds)."""
    with tr.op("op.sweep_cell") as totals:
        with tr.span("cli.sweep_cell"):
            failure, _ = ops.sweep_cell_op(case.cell())
    return failure, totals["cli.sweep_cell"]


def op_wall(totals: dict, op: str, layers: tuple[str, ...]) -> tuple[float, float, float]:
    """Split a traced op's wall time.

    Returns (wall without the probe calls, wall without probes and hook, part
    of the latter that no layer span covers).
    """
    hook = totals.get("bench.hook", 0.0)
    wall = totals[op] - sum(totals.get(name, 0.0) for name in PROBES)
    covered = sum(totals.get(name, 0.0) for name in layers) - hook
    return wall, wall - hook, wall - hook - covered
