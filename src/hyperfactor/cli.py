"""Command-line surface: extend, verify, gen, sweep, baranyai.

Exit codes: 0 success; 1 verification failure / generation failure;
2 inadmissible parameters or a bad argument (argparse's own code, also used
for a non-integer HYPERFACTOR_SEED); 3 bound violation without --force;
4 invalid or corrupted input document; 5 coloring stuck in forced mode;
6 internal infeasibility (a bug).
"""
from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import os
import re
import sys
import time

from .combinatorics import binom, bound_holds
from .errors import (
    GenerationFailed,
    GreedyStuck,
    HyperfactorError,
    InadmissibleParameters,
    InfeasibleTransport,
    InternalInvariantViolation,
    NegativeTopLevelQuota,
    NonIntegerColorQuota,
    SchemaError,
)
from .generate import random_instance
from .model import (
    Instance,
    Parameters,
    is_admissible,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
    validate_instance,
)
from .pipeline import extend_instance, single_edge_instance
from .verify import verify_certificate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INADMISSIBLE = 2
EXIT_BOUND = 3
EXIT_BAD_INPUT = 4
EXIT_STUCK = 5
EXIT_INTERNAL = 6

SEED_ENV = "HYPERFACTOR_SEED"

CSV_COLUMNS = ["h", "m", "n", "lambda", "r_pattern", "seed",
               "admissible", "bound", "outcome", "verified", "millis"]


def build_r_vector(pattern: str, n: int, h: int, lam: int) -> tuple[int, ...]:
    """Expand an r pattern: 'ones', 'uniform:R', or explicit '2,2,1,1,1'.

    'ones' and 'uniform:R' size the vector so the degrees sum to
    lambda * C(n-1, h-1); a non-dividing uniform degree is inadmissible.
    """
    total = lam * binom(n - 1, h - 1)
    if pattern == "ones":
        return (1,) * total
    if pattern.startswith("uniform:"):
        degree = int(pattern.split(":", 1)[1])
        if degree < 1 or total % degree != 0:
            raise InadmissibleParameters(f"uniform degree {degree} does not divide {total}")
        return (degree,) * (total // degree)
    try:
        return tuple(int(x) for x in pattern.split(","))
    except ValueError:
        raise InadmissibleParameters(f"cannot parse r pattern {pattern!r}") from None


def _parse_linear(text: str) -> tuple[int, int]:
    """Parse 'c', 'am', or 'am+c' / 'am-c' into (a, c) meaning a*m + c."""
    match = re.fullmatch(r"\s*(?:(\d*)m)?\s*([+-]?\s*\d+)?\s*", text)
    if not match or (match.group(1) is None and match.group(2) is None):
        raise ValueError(f"cannot parse span endpoint {text!r}")
    a = 0
    if match.group(1) is not None:
        a = int(match.group(1)) if match.group(1) else 1
    c = int(match.group(2).replace(" ", "")) if match.group(2) else 0
    return a, c


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


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _stderr_trace(record: dict) -> None:
    sys.stderr.write(json.dumps(record, separators=(",", ":")) + "\n")


def _run_extension(inst: Instance, args, forced_below_bound: bool) -> int:
    trace = _stderr_trace if args.trace else None
    try:
        cert = extend_instance(inst, seed=args.seed, trace=trace)
    except GreedyStuck as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STUCK
    except NegativeTopLevelQuota as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STUCK if forced_below_bound else EXIT_INTERNAL
    except (InfeasibleTransport, InternalInvariantViolation, NonIntegerColorQuota) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    report = verify_certificate(cert, inst)
    cert.report = report.to_json()
    if not report.ok:
        print("error: produced certificate failed verification", file=sys.stderr)
        return EXIT_INTERNAL
    _write_output(serialize_certificate(cert), args.output)
    return EXIT_OK


def cmd_extend(args) -> int:
    try:
        with open(args.instance, "r", encoding="utf-8") as fh:
            inst = parse_instance(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    p = inst.params
    if not is_admissible(p):
        print("error: parameters are inadmissible", file=sys.stderr)
        return EXIT_INADMISSIBLE
    below_bound = not bound_holds(p.n, p.m, p.h)
    if below_bound and not args.force:
        print(f"error: n={p.n} is below the extension bound for m={p.m}, h={p.h}; "
              "pass --force for a best-effort attempt", file=sys.stderr)
        return EXIT_BOUND
    report = validate_instance(inst)
    if not report.ok:
        first = report.issues[0]
        print(f"error: invalid coloring: {first.kind}: {first.detail}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return _run_extension(inst, args, forced_below_bound=below_bound)


def cmd_verify(args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            cert = parse_certificate(fh.read())
        with open(args.instance, "r", encoding="utf-8") as fh:
            inst = parse_instance(fh.read())
    except (OSError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    report = verify_certificate(cert, inst)
    sys.stdout.write(json.dumps(report.to_json(), separators=(",", ":")) + "\n")
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_gen(args) -> int:
    try:
        r = build_r_vector(args.r, args.n, args.h, args.lam)
        params = Parameters(n=args.n, m=args.m, h=args.h, lam=args.lam, r=r)
        if not is_admissible(params):
            raise InadmissibleParameters("parameters fail the admissibility conditions")
    except (InadmissibleParameters, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    try:
        inst = random_instance(params, seed=args.seed if args.seed is not None else 0)
    except GenerationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _write_output(serialize_instance(inst), args.output)
    return EXIT_OK


def cmd_baranyai(args) -> int:
    try:
        r = build_r_vector(args.r, args.n, args.h, args.lam)
        params = Parameters(n=args.n, m=args.h, h=args.h, lam=args.lam, r=r)
        if not is_admissible(params):
            raise InadmissibleParameters("parameters fail the admissibility conditions")
    except (InadmissibleParameters, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    below_bound = not bound_holds(params.n, params.h, params.h)
    if below_bound and not args.force:
        print(f"error: n={params.n} is below the from-scratch bound for h={params.h}",
              file=sys.stderr)
        return EXIT_BOUND
    inst = single_edge_instance(params)
    return _run_extension(inst, args, forced_below_bound=below_bound)


def run_sweep_cell(cell: tuple) -> dict:
    """One sweep cell, independent and pure; safe for worker pools."""
    h, m, n, lam, r_pattern, seed, force = cell
    row = {"h": h, "m": m, "n": n, "lambda": lam, "r_pattern": r_pattern,
           "seed": seed, "admissible": "", "bound": "", "outcome": "",
           "verified": "", "millis": 0}
    start = time.perf_counter()

    def done(outcome: str) -> dict:
        row["outcome"] = outcome
        row["millis"] = int((time.perf_counter() - start) * 1000)
        return row

    try:
        r = build_r_vector(r_pattern, n, h, lam)
        params = Parameters(n=n, m=m, h=h, lam=lam, r=r)
    except (InadmissibleParameters, ValueError):
        row["admissible"] = False
        return done("inadmissible")
    row["admissible"] = is_admissible(params)
    row["bound"] = bound_holds(n, m, h)
    if not row["admissible"]:
        return done("inadmissible")
    if not row["bound"] and not force:
        return done("below_bound")
    try:
        inst = random_instance(params, seed=seed)
    except GenerationFailed:
        return done("gen_failed")
    try:
        cert = extend_instance(inst, seed=seed)
    except GreedyStuck:
        return done("greedy_stuck")
    except NegativeTopLevelQuota:
        return done("negative_quota")
    except InfeasibleTransport:
        return done("infeasible")
    except HyperfactorError:
        return done("error")
    row["verified"] = verify_certificate(cert, inst).ok
    return done("ok")


def cmd_sweep(args) -> int:
    try:
        h_values = parse_span(args.h)(0)
        m_span = parse_span(args.m)
        n_span = parse_span(args.n)
        lam_values = parse_span(args.lam)(0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    seeds = list(range(args.seeds))

    cells = [(h, m, n, lam, args.r, seed, args.force)
             for h in h_values
             for m in m_span(0)
             for n in n_span(m)
             for lam in lam_values
             for seed in seeds]

    if args.jobs > 1 and cells:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(run_sweep_cell, cells, chunksize=8))
    else:
        rows = [run_sweep_cell(cell) for cell in cells]

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        rendered = {}
        for key in CSV_COLUMNS:
            value = row.get(key, "")
            if isinstance(value, bool):
                value = "true" if value else "false"
            rendered[key] = value
        writer.writerow(rendered)
    _write_output(buffer.getvalue(), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    ext.set_defaults(func=cmd_extend)

    ver = sub.add_parser("verify", help="independently verify a certificate")
    ver.add_argument("certificate", help="certificate JSON document")
    ver.add_argument("instance", help="instance JSON document")
    ver.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen", help="generate a random valid instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--h", type=int, required=True)
    gen.add_argument("--lam", "--lambda", dest="lam", type=int, default=1)
    gen.add_argument("--r", default="ones", help="'ones', 'uniform:R', or '2,2,1,...'")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("-o", "--output", default="-")
    gen.set_defaults(func=cmd_gen)

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
    swp.set_defaults(func=cmd_sweep)

    bar = sub.add_parser("baranyai", help="factorize lambda K_n^h from scratch")
    bar.add_argument("--n", type=int, required=True)
    bar.add_argument("--h", type=int, required=True)
    bar.add_argument("--lam", "--lambda", dest="lam", type=int, default=1)
    bar.add_argument("--r", default="ones")
    bar.add_argument("-o", "--output", default="-")
    bar.add_argument("--force", action="store_true")
    bar.add_argument("--seed", type=int, default=None)
    bar.add_argument("--trace", action="store_true")
    bar.set_defaults(func=cmd_baranyai)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    env = os.environ.get(SEED_ENV)
    if env and "seed" in vars(args) and args.seed is None:
        try:
            args.seed = int(env)
        except ValueError:
            print(f"error: {SEED_ENV}={env!r} is not an integer", file=sys.stderr)
            return EXIT_INADMISSIBLE
    return args.func(args)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
