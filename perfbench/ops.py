"""The operations users wait on, run untraced, and the correctness gate.

``extend`` and ``verify`` run in-process through ``cli.main``, exactly as the
``hyperfactor`` command runs them; a sweep cell runs through
``cli.run_sweep_cell``. Each op is timed around that one call and returns
what went wrong with it, or None.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from time import perf_counter

from hyperfactor import cli


class Gate:
    """Counts attempted and failed ops; an op fails when any of its checks does."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, failure: str | None) -> bool:
        self.attempted += 1
        if failure:
            self.failed += 1
            print(f"perfbench: check failed: {failure}", file=sys.stderr)
        return not failure


def run_cli(argv: list[str]) -> tuple[int | None, str, float]:
    """Run ``cli.main(argv)`` and return (exit code, stdout text, seconds).

    An exception escaping the CLI is a failed op: exit code None.
    """
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # any escape from the CLI is a failed op, not a crash of the run
        traceback.print_exc()
        code = None
    return code, out.getvalue(), perf_counter() - start


def extend_op(inst_path: str, cert_path: str) -> tuple[str | None, float, bytes]:
    """``hyperfactor extend INST -o CERT``; returns (failure, seconds, certificate bytes)."""
    if os.path.exists(cert_path):
        os.remove(cert_path)
    code, _, seconds = run_cli(["extend", inst_path, "-o", cert_path])
    if code != 0 or not os.path.exists(cert_path):
        return f"extend {inst_path} exited {code}", seconds, b""
    with open(cert_path, "rb") as fh:
        return None, seconds, fh.read()


def verify_op(cert_path: str, inst_path: str) -> tuple[str | None, float, str]:
    """``hyperfactor verify CERT INST``; passing needs exit 0 and ``"pass": true``."""
    code, out, seconds = run_cli(["verify", cert_path, inst_path])
    try:
        passed = json.loads(out)["pass"] is True
    except (ValueError, KeyError, TypeError):
        passed = False
    if code != 0 or not passed:
        return f"verify {cert_path} exited {code}: {out.strip()[:200]}", seconds, out
    return None, seconds, out


def sweep_cell_op(cell: tuple) -> tuple[str | None, float]:
    """One ``cli.run_sweep_cell``; passing needs outcome ``ok`` and a passing verification."""
    start = perf_counter()
    try:
        row = cli.run_sweep_cell(cell)
    except Exception:  # any escape from the cell is a failed op, not a crash of the run
        traceback.print_exc()
        row = {}
    seconds = perf_counter() - start
    if row.get("outcome") != "ok" or row.get("verified") is not True:
        outcome, verified = row.get("outcome"), row.get("verified")
        return f"sweep cell {cell} ended {outcome!r}, verified {verified!r}", seconds
    return None, seconds
