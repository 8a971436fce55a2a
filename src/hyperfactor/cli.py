"""Command-line surface: extend, verify, gen, sweep, baranyai.

Exit codes: 0 success, 1 a certificate failed verification, 2 a bad argument
(argparse's own code); every other code comes from the error that ended the
command, by the table in ``errors.py``.
"""
from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import os
import re
import sys
import time
import traceback

from .combinatorics import binom, bound_holds
from .errors import (BadArgument, BelowBound, HyperfactorError, InadmissibleParameters,
                     InternalInvariantViolation, SchemaError)
from .generate import random_instance
from .model import (
    Instance,
    Parameters,
    check_size,
    is_admissible,
    parse_certificate,
    parse_instance,
    require_admissible,
    serialize_certificate,
    serialize_instance,
)
from .pipeline import extend_instance, single_edge_instance
from .verify import verify_certificate

SEED_ENV = "HYPERFACTOR_SEED"

CSV_COLUMNS = ["h", "m", "n", "lambda", "r_pattern", "seed",
               "admissible", "bound", "outcome", "verified", "millis"]


def build_r_vector(pattern: str, n: int, h: int, lam: int) -> tuple[int, ...]:
    """Expand an r pattern: 'ones', 'uniform:R', or explicit '2,2,1,1,1'.

    'ones' and 'uniform:R' size the vector so the degrees sum to
    lambda * C(n-1, h-1); a non-dividing uniform degree is inadmissible.
    Raises TooLarge before it computes or expands a vector too large to use.
    """
    check_size(n, h, 1)   # bounds C(n, h), so the binomial below is cheap
    total = lam * binom(n - 1, h - 1)
    if pattern == "ones":
        degree = 1
    elif pattern.startswith("uniform:"):
        degree = int(pattern.split(":", 1)[1])
        if degree < 1 or total % degree != 0:
            raise InadmissibleParameters(f"uniform degree {degree} does not divide {total}")
    else:
        try:
            return tuple(int(x) for x in pattern.split(","))
        except ValueError:
            raise InadmissibleParameters(f"cannot parse r pattern {pattern!r}") from None
    check_size(n, h, total // degree)
    return (degree,) * (total // degree)


def _parse_linear(text: str) -> tuple[int, int]:
    """Parse 'c', 'am', or 'am+c' / 'am-c' into (a, c) meaning a*m + c.

    A constant after an m term needs its sign: '2m3' and 'm 5' do not parse.
    """
    match = re.fullmatch(r"\s*(?:(\d*)m\s*([+-]\s*\d+)?|([+-]?\s*\d+))\s*", text)
    if not match:
        raise ValueError(f"cannot parse span endpoint {text!r}")
    a, offset, const = match.groups()
    if const is not None:
        return 0, int(const.replace(" ", ""))
    return int(a or 1), int(offset.replace(" ", "")) if offset else 0


def parse_span(text: str):
    """Parse a grid span: '3', '2,4', '2..4', or m-linear '2m..2m+6'.

    Returns a function of m yielding the list of values (plain integer spans
    ignore m). Ranges step by 1 and may be empty.
    """
    pieces = text.split("..")
    if len(pieces) == 1:
        endpoints = [_parse_linear(p) for p in text.split(",")]
        return lambda m: [a * m + c for a, c in endpoints]
    if len(pieces) == 2:
        (a1, c1), (a2, c2) = _parse_linear(pieces[0]), _parse_linear(pieces[1])
        return lambda m: list(range(a1 * m + c1, a2 * m + c2 + 1))
    raise ValueError(f"cannot parse span {text!r}")


def _write_output(text: str, path: str) -> None:
    """Write ``text`` to stdout (``-``) or to ``path``; an unwritable path is a bad argument."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadArgument(f"{path}: cannot write: {exc}") from None


def _stderr_trace(record: dict) -> None:
    sys.stderr.write(json.dumps(record, separators=(",", ":")) + "\n")


def _read(path: str) -> str:
    """The text of the file at ``path``; an unreadable or non-UTF-8 file is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read: {exc}", path) from None


def _parameters(n: int, m: int, h: int, lam: int, r_pattern: str) -> Parameters:
    """Parameters from command-line values; a malformed value is inadmissible."""
    try:
        return Parameters(n=n, m=m, h=h, lam=lam, r=build_r_vector(r_pattern, n, h, lam))
    except ValueError as exc:
        raise InadmissibleParameters(str(exc)) from None


def _check_hypotheses(p: Parameters, force: bool) -> None:
    """Require admissibility, then the bound unless ``force``."""
    require_admissible(p)
    if not force and not bound_holds(p.n, p.m, p.h):
        raise BelowBound(f"n={p.n} is below the extension bound for m={p.m}, h={p.h}; "
                         "pass --force for a best-effort attempt")


def _run_extension(inst: Instance, args) -> int:
    """Extend, verify and write the certificate; a failed verification is a bug."""
    cert = extend_instance(inst, seed=args.seed, trace=_stderr_trace if args.trace else None)
    report = verify_certificate(cert, inst)
    cert.report = report.to_json()
    if not report.ok:
        first, records, where = report.failures[0], [], ""
        try:   # a replay under a hook recounts the state after every detach step
            extend_instance(inst, seed=args.seed, trace=records.append, hook=lambda *step: None)
        except InternalInvariantViolation as exc:
            step = 1 + sum(record["stage"] == "detach" for record in records)
            where = f"; first broken at detach step {step}: {exc}"
        raise InternalInvariantViolation(
            f"produced certificate failed verification: {first['kind']}: {first['detail']}{where}")
    _write_output(serialize_certificate(cert), args.output)
    return 0


def cmd_extend(args) -> int:
    inst = parse_instance(_read(args.instance))
    _check_hypotheses(inst.params, args.force)
    return _run_extension(inst, args)


def cmd_verify(args) -> int:
    cert = parse_certificate(_read(args.certificate))
    inst = parse_instance(_read(args.instance))
    report = verify_certificate(cert, inst)
    sys.stdout.write(json.dumps(report.to_json(), separators=(",", ":")) + "\n")
    return 0 if report.ok else 1


def cmd_gen(args) -> int:
    params = _parameters(args.n, args.m, args.h, args.lam, args.r)
    inst = random_instance(params, seed=args.seed if args.seed is not None else 0)
    _write_output(serialize_instance(inst), args.output)
    return 0


def cmd_baranyai(args) -> int:
    params = _parameters(args.n, args.h, args.h, args.lam, args.r)
    _check_hypotheses(params, args.force)
    return _run_extension(single_edge_instance(params), args)


def run_sweep_cell(cell: tuple) -> dict:
    """One sweep cell, independent and pure; safe for worker pools.

    A bug, an error ``extend`` exits 6 on or any other exception, also records
    ``crash``: where it struck. The outcome stays the error's, else ``crash``.
    """
    h, m, n, lam, r_pattern, seed, force = cell
    row = {"h": h, "m": m, "n": n, "lambda": lam, "r_pattern": r_pattern,
           "seed": seed, "admissible": False, "bound": "", "outcome": "",
           "verified": "", "millis": 0}
    start = time.perf_counter()

    def done(outcome: str) -> dict:
        row["outcome"] = outcome
        row["millis"] = int((time.perf_counter() - start) * 1000)
        return row

    try:
        params = _parameters(n, m, h, lam, r_pattern)
        row["admissible"] = is_admissible(params)
        row["bound"] = bound_holds(n, m, h)
        _check_hypotheses(params, force)
        inst = random_instance(params, seed=seed)
        cert = extend_instance(inst, seed=seed)
        row["verified"] = verify_certificate(cert, inst).ok
    except Exception as exc:   # keep the other rows either way
        known = isinstance(exc, HyperfactorError)
        if not known or exc.exit_code == 6:   # a bug: record where it struck
            where = traceback.extract_tb(exc.__traceback__)[-1]
            row["crash"] = f"{cell}: {type(exc).__name__}: {exc} at {where.filename}:{where.lineno}"
        return done(exc.outcome if known else "crash")
    return done("ok")


def cmd_sweep(args) -> int:
    try:
        h_values, m_span, n_span, lam_values = map(parse_span, (args.h, args.m, args.n, args.lam))
    except ValueError as exc:
        raise BadArgument(f"sweep grid: {exc}") from None
    for flag, text in (("--h", args.h), ("--m", args.m), ("--lam", args.lam)):
        if "m" in text:   # the grid reads these spans once, at m = 0
            raise BadArgument(f"sweep grid: {flag} span {text!r} uses m; only --n spans may")
    for flag, value, least in (("--seeds", args.seeds, 0), ("--jobs", args.jobs, 1)):
        if value < least:
            raise BadArgument(f"{flag} must be at least {least}, got {value}")
    cells = [(h, m, n, lam, args.r, seed, args.force)
             for h in h_values(0)
             for m in m_span(0)
             for n in n_span(m)
             for lam in lam_values(0)
             for seed in range(args.seeds)]

    rows, died = [], None
    if args.jobs > 1 and cells:
        import concurrent.futures   # here, so that no other command pays for loading it

        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(args.jobs, len(cells), os.cpu_count() or 1)) as pool:
            futures = [pool.submit(run_sweep_cell, cell) for cell in cells]
        for future in futures:   # one task per cell: a killed worker loses only unfinished cells
            try:
                rows.append(future.result())
            except concurrent.futures.BrokenExecutor as exc:
                died = died or exc
    else:
        rows = [run_sweep_cell(cell) for cell in cells]

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: ("true" if value else "false") if isinstance(value, bool) else value
                         for key, value in row.items()})
    crashed = [row["crash"] for row in rows if "crash" in row]
    unverified = [(row["h"], row["m"], row["n"], row["lambda"], row["r_pattern"], row["seed"],
                   args.force) for row in rows if row["verified"] is False]
    failure = (f"a sweep worker died: {died}" if died is not None
               else f"{len(crashed)} sweep cell(s) crashed, first {crashed[0]}" if crashed
               else f"{len(unverified)} sweep cell(s) failed verification, first {unverified[0]}"
               if unverified else None)
    try:
        _write_output(buffer.getvalue(), args.output)
    except BadArgument as exc:
        if failure is None:
            raise
        failure += f"; also {exc}"   # a bug outranks a bad -o path
    if failure is not None:
        raise InternalInvariantViolation(failure)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process and shared.

    Callers must not change it. It holds no command functions: ``main``
    looks each command up by name when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="hyperfactor",
        description="Extend partial r-factorizations of complete uniform hypergraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    ext = sub.add_parser("extend", help="extend an instance to a full factorization")
    ext.add_argument("instance", help="instance JSON document")
    ext.add_argument("-o", "--output", default="-", help="certificate path (default stdout)")
    ext.add_argument("--force", action="store_true",
                     help="attempt best-effort extension below the bound")
    ext.add_argument("--seed", type=int, default=None, help="shuffle greedy order")
    ext.add_argument("--trace", action="store_true", help="emit JSONL trace on stderr")

    ver = sub.add_parser("verify", help="independently verify a certificate")
    ver.add_argument("certificate", help="certificate JSON document")
    ver.add_argument("instance", help="instance JSON document")

    gen = sub.add_parser("gen", help="generate a random valid instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--h", type=int, required=True)
    gen.add_argument("--lam", "--lambda", dest="lam", type=int, default=1)
    gen.add_argument("--r", default="ones", help="'ones', 'uniform:R', or '2,2,1,...'")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("-o", "--output", default="-")

    swp = sub.add_parser("sweep", help="run a grid of cells and emit CSV")
    swp.add_argument("--h", required=True, help="span, e.g. '2' or '2..4'")
    swp.add_argument("--m", required=True, help="span, e.g. '2..4'")
    swp.add_argument("--n", required=True, help="m-linear span, e.g. '2m..2m+6'")
    swp.add_argument("--lam", "--lambda", dest="lam", default="1", help="span")
    swp.add_argument("--r", default="ones")
    swp.add_argument("--seeds", type=int, default=1, help="seeds 0..S-1 per cell")
    swp.add_argument("--jobs", type=int, default=1)
    swp.add_argument("--force", action="store_true")
    swp.add_argument("-o", "--output", default="-")

    bar = sub.add_parser("baranyai", help="factorize lambda K_n^h from scratch")
    bar.add_argument("--n", type=int, required=True)
    bar.add_argument("--h", type=int, required=True)
    bar.add_argument("--lam", "--lambda", dest="lam", type=int, default=1)
    bar.add_argument("--r", default="ones")
    bar.add_argument("-o", "--output", default="-")
    bar.add_argument("--force", action="store_true")
    bar.add_argument("--seed", type=int, default=None)
    bar.add_argument("--trace", action="store_true")

    return parser


def main(argv=None) -> int:
    """Run one command; a HyperfactorError ends it with one line and its exit code.

    The pipeline, the verifier and the documents make no reference cycles, so
    the cyclic collector is paused while a command runs and then restored.
    ``sweep`` keeps it: its ``--jobs`` workers are forked and would inherit it off.
    The parser is built once per process; the command function is looked up by
    name here, at call time, so a replaced ``cmd_*`` is the one that runs.
    """
    args = build_parser().parse_args(argv)
    command = {"extend": cmd_extend, "verify": cmd_verify, "gen": cmd_gen,
               "sweep": cmd_sweep, "baranyai": cmd_baranyai}[args.command]
    env = os.environ.get(SEED_ENV)
    pause = args.command != "sweep" and gc.isenabled()
    try:
        if env and "seed" in vars(args) and args.seed is None:
            try:
                args.seed = int(env)
            except ValueError:
                raise BadArgument(f"{SEED_ENV}={env!r} is not an integer") from None
        if pause:
            gc.disable()
        return command(args)
    except HyperfactorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if pause:
            gc.enable()


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
