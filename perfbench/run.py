"""Extension benchmark for hyperfactor.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload h2_dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload runs serially in this one process, against the package under
``src/`` of the checkout. ``--trace 0`` times the ops users wait on
(``hyperfactor extend`` and ``hyperfactor verify`` in-process through
``cli.main``, and sweep cells through ``cli.run_sweep_cell``) and reports the
end-to-end metrics. ``--trace 1`` is the separate traced run that reports the
per-layer metrics. Every output is checked as it is produced. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs each workload in a fresh process, one after another.
See perfbench/README.md for the metric definitions.
"""
from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402 -- set-up time is measured from the line above
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
SPANS = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("h2_dense", "h3_sparse", "sweep_small")

# Set-up is timed in this process and in SETUP_PROBES fresh child processes
# that do the same set-up and exit; setup_s is the median.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 150

END_TO_END = (("extend_s_p50", "s"), ("verify_s_p50", "s"), ("cells_per_s", "1/s"),
              ("cell_s_p50", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER_TIMES = (
    "detach.step_s", "detach.plan_s", "detach.apply_s", "detach.build_s", "detach.solve_s",
    "detach.assemble_s", "amalgam.build_s", "amalgam.levels_s", "amalgam.quotas_s",
    "model.parse_instance_s", "model.validate_instance_s", "model.serialize_certificate_s",
    "model.parse_certificate_s", "verify.verify_certificate_s", "generate.random_instance_s",
    "cli.parse_args_s", "cli.sweep_cell_s", "trace.extend_wall_s", "trace.verify_wall_s",
    "trace.extend_overhead_s", "trace.verify_overhead_s", "trace.hook_s")
PER_LAYER_COUNTS = (
    "detach.steps", "detach.rows", "detach.nz_cells", "detach.dense_cells",
    "detach.frac_cells", "detach.flow_units", "detach.classes_scanned",
    "amalgam.classes", "amalgam.k", "verify.subsets", "model.cert_bytes")
PER_LAYER_RATIOS = ("detach.nz_ratio", "detach.live_ratio",
                    "trace.extend_uncovered_frac", "trace.verify_uncovered_frac")
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 75)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the measured loop runs; the op in flight finishes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="do the set-up only and print its seconds (used internally)")
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's own ``src/`` first on the import path, or exit 2."""
    if not (SRC / "hyperfactor" / "__init__.py").is_file():
        print(f"perfbench: no hyperfactor package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    # The CLI reads a default greedy seed from the environment; ops must not.
    os.environ.pop("HYPERFACTOR_SEED", None)


def set_up(name: str, seed: int, work_dir: str):
    """Make the workload's inputs and warm up; returns (workload, paths, texts, gate)."""
    import ops
    from hyperfactor import random_instance, serialize_instance
    from workloads import WARMUP_CASE, make_workload

    def write_instance(case, tag: str) -> tuple[str, str, str]:
        text = serialize_instance(random_instance(case.params(), seed=case.seed))
        inst_path = os.path.join(work_dir, f"inst-{tag}.json")
        with open(inst_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return inst_path, os.path.join(work_dir, f"cert-{tag}.json"), text

    workload = make_workload(name, seed)
    written = [write_instance(case, str(idx)) for idx, case in enumerate(workload.cases)]
    paths = [(inst_path, cert_path) for inst_path, cert_path, _ in written]
    texts = [text for _, _, text in written]

    gate = ops.Gate()
    inst_path, cert_path, _ = write_instance(WARMUP_CASE, "warmup")
    gate.check(ops.extend_op(inst_path, cert_path)[0])
    gate.check(ops.verify_op(cert_path, inst_path)[0])
    gate.check(ops.sweep_cell_op(WARMUP_CASE.cell())[0])
    return workload, paths, texts, gate


def tail(samples: list[float]) -> tuple[str, float] | None:
    """The highest listed percentile with at least ten samples above it."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        idx = int(pct / 100 * len(ordered))
        if len(ordered) - idx - 1 >= 10:
            return f"p{pct:g}", ordered[idx]
    return None


def measure(workload, paths, seconds: float, gate):
    """The untraced loop: ops in case order until ``seconds`` have passed."""
    import ops

    ext, ver, cells = [], [], []
    good_cells = 0
    first_cert: dict[int, bytes] = {}
    start = perf_counter()
    i = 0
    while True:
        idx = i % len(workload.cases)
        inst_path, cert_path = paths[idx]
        if workload.sweep:
            failure, cell_s = ops.sweep_cell_op(workload.cases[idx].cell())
            cell_ok = gate.check(failure)
        failure, ext_s, cert = ops.extend_op(inst_path, cert_path)
        if not failure and cert != first_cert.setdefault(idx, cert):
            failure = f"repeat extend of {inst_path} gave a different certificate"
        ext_ok = gate.check(failure)
        if ext_ok:
            ext.append(ext_s)
        failure, ver_s, _ = ops.verify_op(cert_path, inst_path)
        ver_ok = gate.check(failure)
        if ver_ok:
            ver.append(ver_s)
        if not workload.sweep:
            cell_ok, cell_s = ext_ok and ver_ok, ext_s + ver_s
        cells.append(cell_s)
        good_cells += cell_ok
        i += 1
        if perf_counter() - start >= seconds:
            return ext, ver, cells, good_cells


def run_untraced(args, workload, paths, gate, setup_s: float):
    ext, ver, cells, good_cells = measure(workload, paths, args.seconds, gate)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    if not (ext and ver and good_cells):
        return None
    metrics = {
        "extend_s_p50": statistics.median(ext),
        "verify_s_p50": statistics.median(ver),
        "cells_per_s": good_cells / sum(cells),
        "cell_s_p50": statistics.median(cells),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    cell_tail = tail(cells)
    notes = {
        "extend_s_p50": f"n={len(ext)}",
        "verify_s_p50": f"n={len(ver)}",
        "cells_per_s": f"{good_cells} verified cells in {sum(cells):.3f} s",
        "cell_s_p50": f"n={len(cells)}",
        "setup_s": f"median of {len(setups)}: " + " ".join(f"{s:.4f}" for s in setups),
    }
    print(f"{workload.name} seed {args.seed}: end-to-end metrics")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {metrics[name]:<12.6g} {unit:<4} {notes.get(name, '')}")
    if cell_tail:
        pct, value = cell_tail
        print(f"  {'cell_s_tail':<14} {value:<12.6g} {'s':<4} {pct} of n={len(cells)}")
    else:
        print(f"  {'cell_s_tail':<14} {'n/a':<12} {'s':<4} n={len(cells)}: "
              "no percentile has 10 samples above it")
    print(f"  {'fail_frac':<14} {gate.failed / gate.attempted:<12.6g} {'ratio':<4} "
          f"{gate.failed} failed of {gate.attempted} attempted")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def setup_probe(args) -> float:
    """Time set-up in a fresh process: the same workload, seed and inputs."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: set-up probe exited {done.returncode}")
    return float(done.stdout.split()[-1])


def traced_round(workload, paths, texts, gate, tracer, first_cert: dict):
    """One traced pass over the workload's traced cases; returns (times, counts)."""
    import ops
    import traced

    times = dict.fromkeys(PER_LAYER_TIMES, 0.0)
    times["trace.extend_uncovered_s"] = times["trace.verify_uncovered_s"] = 0.0
    counts = dict.fromkeys(PER_LAYER_COUNTS, 0)
    for idx in workload.traced:
        case = workload.cases[idx]
        inst_path, cert_path = paths[idx]
        failure, ext_s, cert = ops.extend_op(inst_path, cert_path)
        if not failure and cert != first_cert.setdefault(idx, cert):
            failure = f"repeat extend of {inst_path} gave a different certificate"
        if not gate.check(failure):
            continue
        failure, ver_s, ver_out = ops.verify_op(cert_path, inst_path)
        if not gate.check(failure):
            continue
        # The traced ops run in the same order as the untraced pair above.
        try:
            ext, ext_counts, traced_cert = traced.traced_extend(tracer, inst_path, cert_path)
            failure = None if traced_cert == cert else "traced certificate differs from untraced"
        except Exception as exc:  # a failed traced op is counted, and the run goes on
            failure = repr(exc)
        if not gate.check(failure and f"traced extend of {inst_path}: {failure}"):
            continue
        ver, ver_counts, traced_out = traced.traced_verify(tracer, cert_path, inst_path)
        gate.check(traced_out != ver_out and f"traced verify of {cert_path} printed {traced_out!r}")
        gen_s, inst_text = traced.traced_generate(tracer, case)
        gate.check(inst_text != texts[idx] and f"random_instance for {case} differs from set-up")
        failure, cell_s = traced.traced_sweep_cell(tracer, case)
        gate.check(failure)

        hook = ext.get("bench.hook", 0.0)
        ext_wall, ext_own, ext_uncovered = traced.op_wall(ext, "op.extend", traced.EXTEND_LAYERS)
        ver_wall, ver_own, ver_uncovered = traced.op_wall(ver, "op.verify", traced.VERIFY_LAYERS)
        for name, value in (
                ("detach.step_s", ext["detach.step"] - hook),
                ("detach.plan_s", ext["detach.plan"]),
                ("detach.apply_s", ext["detach.apply"]),
                ("detach.build_s", ext["detach.build"]),
                ("detach.solve_s", ext["detach.solve"]),
                ("detach.assemble_s", ext["detach.assemble"]),
                ("amalgam.build_s", ext["amalgam.build"]),
                ("amalgam.levels_s", ext["amalgam.levels"]),
                ("amalgam.quotas_s", ext["amalgam.quotas"]),
                ("model.parse_instance_s",
                 ext["model.parse_instance"] + ver["model.parse_instance"]),
                ("model.validate_instance_s", ext["model.validate_instance"]),
                ("model.serialize_certificate_s", ext["model.serialize_certificate"]),
                ("model.parse_certificate_s", ver["model.parse_certificate"]),
                ("verify.verify_certificate_s",
                 ext["verify.verify_certificate"] + ver["verify.verify_certificate"]),
                ("generate.random_instance_s", gen_s),
                ("cli.parse_args_s", ext["cli.parse_args"] + ver["cli.parse_args"]),
                ("cli.sweep_cell_s", cell_s),
                ("trace.extend_wall_s", ext_own),
                ("trace.verify_wall_s", ver_own),
                ("trace.extend_overhead_s", ext_wall - ext_s),
                ("trace.verify_overhead_s", ver_wall - ver_s),
                ("trace.hook_s", hook),
                ("trace.extend_uncovered_s", ext_uncovered),
                ("trace.verify_uncovered_s", ver_uncovered)):
            times[name] += value
        for name, value in list(ext_counts.items()) + list(ver_counts.items()):
            counts[name] += value
    return times, counts


def run_traced(args, workload, paths, texts, gate):
    import traced

    tracer = traced.Tracer()
    rounds = []
    first_cert: dict[int, bytes] = {}
    start = perf_counter()
    while True:
        rounds.append(traced_round(workload, paths, texts, gate, tracer, first_cert))
        if perf_counter() - start >= args.seconds:
            break
    SPANS.mkdir(exist_ok=True)
    spans_path = SPANS / f"spans_{workload.name}_seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")

    counts = rounds[0][1]
    gate.check(any(other != counts for _, other in rounds[1:])
               and "per-layer counts differ between traced rounds")
    metrics = {name: (statistics.median(r[0][name] for r in rounds), "s")
               for name in PER_LAYER_TIMES}
    metrics.update({name: (value, "count") for name, value in counts.items()})
    if not counts["detach.dense_cells"]:
        return None
    med = {name: statistics.median(r[0][name] for r in rounds)
           for name in ("trace.extend_uncovered_s", "trace.verify_uncovered_s")}
    for name, value in (
            ("detach.nz_ratio", counts["detach.nz_cells"] / counts["detach.dense_cells"]),
            ("detach.live_ratio", counts["detach.rows"] / counts["detach.classes_scanned"]),
            ("trace.extend_uncovered_frac",
             med["trace.extend_uncovered_s"] / metrics["trace.extend_wall_s"][0]),
            ("trace.verify_uncovered_frac",
             med["trace.verify_uncovered_s"] / metrics["trace.verify_wall_s"][0])):
        metrics[name] = (value, "ratio")

    print(f"{workload.name} seed {args.seed}: per-layer metrics, median of {len(rounds)} "
          f"traced round(s) over {len(workload.traced)} case(s); spans in {spans_path}")
    for name in PER_LAYER_TIMES + PER_LAYER_COUNTS + PER_LAYER_RATIOS:
        value, unit = metrics[name]
        print(f"  {name:<30} {value:<14.6g} {unit}")
    return {name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in PER_LAYER_TIMES + PER_LAYER_COUNTS + PER_LAYER_RATIOS}


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=False)
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    load_program()
    WORK.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK)
    try:
        workload, paths, texts, gate = set_up(args.workload, args.seed, work_dir)
        setup_s = perf_counter() - PROCESS_START
        if args.setup_probe:
            # The measured process runs the same warm-up and reports its failures.
            print(setup_s)
            return 0
        if args.trace:
            metrics = run_traced(args, workload, paths, texts, gate)
        else:
            metrics = run_untraced(args, workload, paths, gate, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if metrics is None:
        print("perfbench: no op succeeded, so there is nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
