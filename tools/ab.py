"""Interleaved in-process A/B of two versions of the hyperfactor package.

Usage, from the root of a source checkout:

    python3 tools/ab.py BASE CHANGE [--workload W]... [--seed S]... [--rounds N] [--label L]
    python3 tools/ab.py HEAD . --workload sweep_small --rounds 2 --label ci

BASE and CHANGE are each a git revision of this checkout, whose
``src/hyperfactor`` is exported with ``git archive``, or the path of a
checkout, whose ``src/hyperfactor`` loads as it stands, uncommitted edits
included. Both packages load into this one process under two names. The
package imports itself only relatively, so the two copies never meet.

Each workload's cases come from ``perfbench/workloads.py``, which is only
read. BASE generates each instance once, so both sides read the same files.
A round runs one side's ops on every case and then the other side's, and the
side that goes first alternates from round to round. The ops are the
benchmark's: ``cli.main(["extend", INST, "-o", CERT])``, ``cli.main(["verify",
CERT, INST])`` and, on ``sweep_small``, ``cli.run_sweep_cell``. Each op is
timed around that one call. The collector is left as the program leaves it,
so a side's cyclic garbage is mostly collected during its own later ops, as
in a benchmark process of its own; only at the switch between sides can one
side's garbage be collected during the other's op.

Every output is checked. Extend and verify must exit 0, and verify must
pass. A sweep cell must end ``ok`` and verified. Every op must give the same
output as the first run of that op on that case, on either side: the same
certificate bytes and stdout, and the same sweep row except ``millis``. Any
failure is printed, and the exit code is then 1.

``BENCH_<label>.json`` records, per workload, seed and op, each side's
median, q1 and q3 over the rounds. Each round contributes one value per side:
the median time of that op over the round's cases. The file also holds the
number of rounds in which CHANGE's value was lower, the rounds, the host, the
Python version, and both sides' commits and package digests. Stdlib only.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "hyperfactor"
WORKLOAD_NAMES = ("h2_dense", "h3_sparse", "sweep_small")
SIDES = ("base", "change")
MAX_PRINTED_FAILURES = 20


def git(*args: str, cwd: Path = ROOT) -> str:
    done = subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True)
    return done.stdout.strip()


def export(spec: str, scratch: Path, side: str) -> tuple[Path, dict]:
    """The package directory ``spec`` names, and what it is: its commit and a digest."""
    checkout = Path(spec)
    if (checkout / PACKAGE / "__init__.py").is_file():
        package = checkout / PACKAGE
        try:
            commit = git("rev-parse", "HEAD", cwd=checkout)
            edited = bool(git("status", "--porcelain", "--", str(PACKAGE), cwd=checkout))
        except (OSError, subprocess.CalledProcessError):   # not a git checkout
            commit, edited = None, None
    else:
        commit, edited = git("rev-parse", "--verify", f"{spec}^{{commit}}"), False
        archive = subprocess.run(["git", "archive", "--format=tar", commit, str(PACKAGE)],
                                 cwd=ROOT, check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(scratch / side, filter="data")
            else:
                tar.extractall(scratch / side)
        package = scratch / side / PACKAGE
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return package, {"spec": spec, "commit": commit, "uncommitted_changes": edited,
                     "package_sha256": digest.hexdigest()}


def load(name: str, package: Path):
    """Import the package at ``package`` as ``name``; returns the package module."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def load_workloads(base_name: str):
    """``perfbench/workloads.py``, with ``hyperfactor`` standing for the BASE package."""
    aliases = {"hyperfactor" + key[len(base_name):]: module
               for key, module in list(sys.modules.items())
               if key == base_name or key.startswith(base_name + ".")}
    saved = {key: sys.modules[key] for key in aliases if key in sys.modules}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module   # dataclasses look their module up here
        spec.loader.exec_module(module)
    finally:
        for key in aliases:
            del sys.modules[key]
        sys.modules.update(saved)
    return module


def run_main(cli, argv: list[str]) -> tuple[int, str, float]:
    """``cli.main(argv)``: (exit code, stdout, seconds), timed as the benchmark times it."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), perf_counter() - start


def case_ops(cli, case, inst: str, cert: str, sweep: bool) -> dict[str, tuple[float, object]]:
    """One side's ops on one case: {op: (seconds, output)}."""
    ops = {}
    if sweep:
        start = perf_counter()
        row = cli.run_sweep_cell(case.cell())
        seconds = perf_counter() - start
        ops["cell"] = seconds, {key: value for key, value in row.items() if key != "millis"}
    if os.path.exists(cert):
        os.remove(cert)
    code, out, seconds = run_main(cli, ["extend", inst, "-o", cert])
    written = Path(cert).read_bytes() if os.path.exists(cert) else None
    ops["extend"] = seconds, (code, out, written)
    code, out, seconds = run_main(cli, ["verify", cert, inst])
    ops["verify"] = seconds, (code, out)
    return ops


def failure(op: str, output) -> str | None:
    """What is wrong with a first output of ``op``, or None."""
    if op == "cell":
        if output.get("outcome") == "ok" and output.get("verified") is True:
            return None
        return f"ended {output.get('outcome')!r}, verified {output.get('verified')!r}"
    code, out = output[:2]
    if code != 0:
        return f"exited {code}"
    if op == "verify" and json.loads(out).get("pass") is not True:
        return f"printed {out.strip()[:200]}"
    return None


def quartiles(values: list[float]) -> dict[str, float]:
    ordered = sorted(values)

    def at(p: float) -> float:
        pos = p * (len(ordered) - 1)
        low = int(pos)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)

    return {"median": at(0.5), "q1": at(0.25), "q3": at(0.75)}


def compare(clis: dict, workloads, name: str, seed: int, rounds: int, work: Path,
            failures: list[str]) -> dict:
    """Run one workload at one seed on both sides; returns its record."""
    base_package = sys.modules[clis["base"].__package__]
    workload = workloads.make_workload(name, seed)

    def write(case, tag: str) -> str:
        path = work / f"inst-{tag}.json"
        path.write_text(base_package.serialize_instance(
            base_package.random_instance(case.params(), seed=case.seed)), encoding="utf-8")
        return str(path)

    warmup = write(workloads.WARMUP_CASE, "warmup")
    for side, cli in clis.items():   # load lazily imported code before the first timed op
        case_ops(cli, workloads.WARMUP_CASE, warmup, str(work / f"cert-warmup-{side}.json"), True)
    insts = [write(case, str(idx)) for idx, case in enumerate(workload.cases)]
    ops = ("cell", "extend", "verify") if workload.sweep else ("extend", "verify")
    per_round = {op: {side: [] for side in SIDES} for op in ops}
    first: dict[tuple[int, str], object] = {}
    for round_no in range(rounds):
        order = SIDES if round_no % 2 == 0 else SIDES[::-1]
        times = {op: {side: [] for side in SIDES} for op in ops}
        for side in order:
            for idx, case in enumerate(workload.cases):
                cert = str(work / f"cert-{idx}-{side}.json")
                for op, (seconds, output) in case_ops(
                        clis[side], case, insts[idx], cert, workload.sweep).items():
                    times[op][side].append(seconds)
                    where = f"{name} seed {seed} case {idx} {op}, {side} side, round {round_no}"
                    if (idx, op) not in first:
                        first[idx, op] = output
                        wrong = failure(op, output)
                        if wrong:
                            failures.append(f"{where}: {wrong}")
                    elif output != first[idx, op]:
                        failures.append(f"{where}: output differs from the first run of "
                                        f"this op on this case")
        for op in ops:
            for side in SIDES:
                per_round[op][side].append(statistics.median(times[op][side]))
    record = {"workload": name, "seed": seed, "cases": len(workload.cases), "ops": {}}
    for op in ops:
        base, change = per_round[op]["base"], per_round[op]["change"]
        stats = {side: quartiles(per_round[op][side]) for side in SIDES}
        record["ops"][op] = {
            **stats,
            "change_wins": sum(c < b for b, c in zip(base, change)),
            "change_vs_base": stats["change"]["median"] / stats["base"]["median"] - 1,
        }
    return record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision or checkout path of the parent")
    parser.add_argument("change", help="git revision or checkout path of the change")
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="repeatable; default every workload")
    parser.add_argument("--seed", action="append", type=int, help="repeatable; default 1")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--label", default="ab",
                        help="the result goes to BENCH_<label>.json at the checkout's root")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("HYPERFACTOR_SEED", None)   # the CLI reads a default seed from it; ops must not
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as scratch:
        sides, clis = {}, {}
        for side, spec in zip(SIDES, (args.base, args.change)):
            package, sides[side] = export(spec, Path(scratch), side)
            clis[side] = load(f"hyperfactor_{side}", package).cli
        workloads = load_workloads("hyperfactor_base")
        results = []
        for name in args.workload or WORKLOAD_NAMES:
            for seed in args.seed or [1]:
                work = Path(scratch) / f"work-{name}-{seed}"
                work.mkdir()
                record = compare(clis, workloads, name, seed, args.rounds, work, failures)
                results.append(record)
                for op, stats in record["ops"].items():
                    print(f"{name} seed {seed} {op:<6} base {stats['base']['median']:.6f} s  "
                          f"change {stats['change']['median']:.6f} s  "
                          f"{stats['change_vs_base']:+.1%}  change faster in "
                          f"{stats['change_wins']} of {args.rounds}")
    for line in failures[:MAX_PRINTED_FAILURES]:
        print(f"ab: {line}", file=sys.stderr)
    if len(failures) > MAX_PRINTED_FAILURES:
        print(f"ab: ... and {len(failures) - MAX_PRINTED_FAILURES} more", file=sys.stderr)
    report = {
        "label": args.label,
        "identical": not failures,
        "failures": len(failures),
        "rounds": args.rounds,
        "host": {"system": platform.system(), "machine": platform.machine(),
                 "cpus": os.cpu_count(), "python": platform.python_version()},
        **sides,
        "statistic": "per op and side, the median, q1 and q3 over rounds of the round's "
                     "median op time; change_wins counts the rounds where the change's "
                     "was lower",
        "results": results,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}: {'identical outputs' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
