"""CLI tests: exit-code contract, determinism, sweep CSV, baranyai."""
from __future__ import annotations

import concurrent.futures
import csv
import gc
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hyperfactor
from hyperfactor import cli, detach, errors, generate, pipeline
from hyperfactor.combinatorics import binom
from hyperfactor.errors import HyperfactorError
from hyperfactor.model import parse_certificate
from test_pipeline import STUCK_DOC

WORKED_DOC = ('{"n":4,"m":2,"h":2,"lambda":1,"r":[1,1,1],'
              '"edges":[{"support":[1,2],"alpha":0,"colors":{"1":1}}]}\n')


@pytest.fixture
def worked_path(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(WORKED_DOC)
    return str(path)


def run_cli(args):
    return cli.main(args)


def _stuck_greedy(state, level, rng=None):
    raise errors.GreedyStuck((1,), level)


def _raising(error):
    """A stand-in for any stage that raises ``error``."""
    def broken(*args, **kwargs):
        raise error("forced for test")
    return broken


class TestExitCodes:
    def test_exit_0_on_success(self, worked_path, tmp_path):
        out = tmp_path / "cert.json"
        assert run_cli(["extend", worked_path, "-o", str(out)]) == 0
        cert = parse_certificate(out.read_text())
        assert cert.report["pass"] is True

    def test_exit_1_on_verify_failure(self, worked_path, tmp_path, capsys):
        out = tmp_path / "cert.json"
        run_cli(["extend", worked_path, "-o", str(out)])
        doc = json.loads(out.read_text())
        # swap two classes' colors: still complete, no longer regular
        doc["edges"][1]["colors"] = {"3": 1}
        doc["edges"][2]["colors"] = {"2": 1}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["verify", str(bad), worked_path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False

    def test_exit_4_on_a_document_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[]")
        assert run_cli(["extend", str(path)]) == 4
        assert capsys.readouterr().err.splitlines() == ["error: $: top level must be an object"]

    def test_exit_2_on_inadmissible(self, tmp_path):
        doc = json.loads(WORKED_DOC)
        doc["r"] = [1, 1]   # degree sum 2 != C(3,1) = 3
        path = tmp_path / "inadmissible.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["extend", str(path)]) == 2

    def test_exit_3_below_bound_without_force(self, tmp_path):
        # n=12, m=4, h=3 sits below the ~12.2426 threshold
        doc = {"n": 12, "m": 4, "h": 3, "lambda": 1, "r": [1] * binom(11, 2),
               "edges": [{"support": list(s), "alpha": 0, "colors": {str(i + 1): 1}}
                         for i, s in enumerate([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])]}
        path = tmp_path / "below.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["extend", str(path)]) == 3
        out = tmp_path / "cert.json"
        assert run_cli(["extend", str(path), "--force", "-o", str(out)]) == 0

    def test_exit_4_on_corrupted_document(self, tmp_path, worked_path, capsys):
        path = tmp_path / "corrupt.json"
        path.write_text("{definitely not json")
        assert run_cli(["extend", str(path)]) == 4
        path.write_text(WORKED_DOC.replace("[1,2]", "[0,2]"))
        assert run_cli(["extend", str(path)]) == 4
        assert run_cli(["extend", str(tmp_path / "missing.json")]) == 4
        capsys.readouterr()
        for data in (b"\xff\xfe{}", b"[" * 200_000 + b"]" * 200_000):   # not UTF-8; too deep
            path.write_bytes(data)
            for argv in (["extend", str(path)], ["verify", str(path), worked_path]):
                assert run_cli(argv) == 4
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("argv", [["extend", "WORKED"],
                                      ["gen", "--n", "4", "--m", "2", "--h", "2", "--r", "ones"],
                                      ["sweep", "--h", "2", "--m", "2", "--n", "4"]])
    def test_exit_2_on_unwritable_output(self, argv, worked_path, tmp_path, capsys):
        argv = [worked_path if arg == "WORKED" else arg for arg in argv]
        out = tmp_path / "missing" / "out.json"
        assert run_cli(argv + ["-o", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "cannot write" in err[0]

    @pytest.mark.parametrize("doc, line", [
        ({**json.loads(WORKED_DOC),   # two copies but lambda = 1
          "edges": [{"support": [1, 2], "alpha": 0, "colors": {"1": 2}}]},
         "error: invalid instance: extra_edges: {1, 2} has 2 copies, expected 1; "
         "degree_cap_exceeded: vertex 1 has degree 2 in color 1, cap 1; "
         "degree_cap_exceeded: vertex 2 has degree 2 in color 1, cap 1"),
        ({"n": 6, "m": 3, "h": 2, "lambda": 1, "r": [1] * 5,   # four failures: the line names three
          "edges": [{"support": [1, 2], "alpha": 0, "colors": {"1": 2}},
                    {"support": [1, 3], "alpha": 0, "colors": {"1": 1}},
                    {"support": [2, 3], "alpha": 0, "colors": {"1": 1}}]},
         "error: invalid instance: extra_edges: {1, 2} has 2 copies, expected 1; "
         "degree_cap_exceeded: vertex 1 has degree 3 in color 1, cap 1; "
         "degree_cap_exceeded: vertex 2 has degree 3 in color 1, cap 1"),
    ], ids=["three_failures", "four_failures"])
    def test_exit_4_on_invalid_coloring(self, tmp_path, capsys, doc, line):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["extend", str(path)]) == 4
        assert capsys.readouterr().err.splitlines() == [line]

    def test_exit_5_when_stuck_in_forced_mode(self, tmp_path):
        path = tmp_path / "stuck.json"
        path.write_text(STUCK_DOC)
        assert run_cli(["extend", str(path)]) == 3          # refused without --force
        assert run_cli(["extend", str(path), "--force"]) == 5

    def test_exit_5_on_negative_quota_in_forced_mode(self, tmp_path):
        edges = [((1, 2), 1), ((3, 4), 1), ((1, 3), 2), ((2, 4), 2), ((1, 4), 3), ((2, 3), 3)]
        doc = {"n": 6, "m": 4, "h": 2, "lambda": 1, "r": [1] * 5,
               "edges": [{"support": list(s), "alpha": 0, "colors": {str(j): 1}}
                         for s, j in edges]}
        path = tmp_path / "matchings.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["extend", str(path), "--force"]) == 5

    def test_exit_6_on_internal_infeasibility(self, worked_path, monkeypatch, capsys):
        real = detach.build_transportation

        def emptied(state):   # every row holds nothing: no unit can flow
            tp = real(state)
            return detach.TransportationProblem(rows=tp.rows, supplies=tp.supplies,
                                                demands=tp.demands, held=[{} for _ in tp.rows])

        monkeypatch.setattr(detach, "build_transportation", emptied)
        assert run_cli(["extend", worked_path]) == 6
        assert capsys.readouterr().err.splitlines() == [
            "error: max flow 0 < required 3; row ((), 2) short by 1"]

    def test_exit_6_when_the_certificate_fails_verification(self, worked_path, tmp_path,
                                                            monkeypatch, capsys):
        real = cli.verify_certificate

        def failing(cert, inst):
            report = real(cert, inst)
            report.failures.append({"kind": "regularity", "detail": "forced for test"})
            return report

        monkeypatch.setattr(cli, "verify_certificate", failing)
        out = tmp_path / "cert.json"
        assert run_cli(["extend", worked_path, "-o", str(out)]) == 6
        assert capsys.readouterr().err.splitlines() == [
            "error: produced certificate failed verification: regularity: forced for test"]
        assert not out.exists()

    def test_exit_6_names_the_first_verification_failure(self, worked_path, tmp_path,
                                                         monkeypatch, capsys):
        real = cli.extend_instance

        def recolored(inst, **kwargs):
            cert = real(inst, **kwargs)
            moved = next(cls for cls in cert.coloring if cls.support == (2, 3))
            assert moved.colors == {2: 1}
            moved.colors = {1: 1}   # color 3 -> color 2: vertices 2 and 3 leave regularity
            return cert

        monkeypatch.setattr(cli, "extend_instance", recolored)
        out = tmp_path / "cert.json"
        assert run_cli(["extend", worked_path, "-o", str(out)]) == 6
        assert capsys.readouterr().err.splitlines() == [
            "error: produced certificate failed verification: "
            "regularity: vertex 2 has degree 2 in color 2, expected 1"]
        assert not out.exists()

    def test_exit_6_names_the_first_broken_detach_step(self, tmp_path, monkeypatch, capsys):
        # At step 3 a finished class, made by step 1, is recolored: every class
        # total and every live weight holds, so only the verifier and the
        # replay's recount see it.
        path = str(tmp_path / "inst.json")
        assert run_cli(["gen", "--n", "8", "--m", "4", "--h", "2", "--r", "ones",
                        "--seed", "1", "-o", path]) == 0
        real = detach.build_transportation

        def recoloring(state):
            if state.detached == 2:
                colors = state.classes[((1, 5), 0)].colors
                (j, cnt), = colors.items()
                del colors[j]
                colors[(j + 1) % state.params.k] = cnt
            return real(state)

        monkeypatch.setattr(detach, "build_transportation", recoloring)
        out = tmp_path / "cert.json"
        assert run_cli(["extend", path, "-o", str(out)]) == 6
        assert capsys.readouterr().err.splitlines() == [
            "error: produced certificate failed verification: "
            "regularity: vertex 1 has degree 0 in color 4, expected 1; "
            "first broken at detach step 3: class ((1, 5), 0) went from {3: 1} to {4: 1}"]
        assert not out.exists()

    def test_module_entry_point_exits_with_the_error_code(self, tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[]")
        package_parent = os.path.dirname(os.path.dirname(hyperfactor.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_parent, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "hyperfactor.cli", "extend", str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 4
        assert done.stderr.splitlines() == ["error: $: top level must be an object"]

    @pytest.mark.parametrize("name, broken", [
        ("greedy_color_level", _stuck_greedy),
        ("finish_levels", lambda state: [-1, 1, 2]),   # assign_level_h rejects the -1
    ], ids=["greedy_stuck", "negative_quota"])
    def test_exit_6_when_stuck_above_the_bound(self, worked_path, monkeypatch, capsys,
                                               name, broken):
        from hyperfactor import pipeline

        monkeypatch.setattr(pipeline, name, broken)
        assert run_cli(["extend", worked_path]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


class TestErrorMap:
    TABLE = {
        errors.HyperfactorError: (6, "error"),
        errors.SchemaError: (4, "error"),
        errors.InadmissibleParameters: (2, "inadmissible"),
        errors.TooLarge: (2, "too_large"),
        errors.BadArgument: (2, "error"),
        errors.BelowBound: (3, "below_bound"),
        errors.InvalidInstance: (4, "error"),
        errors.GreedyStuck: (5, "greedy_stuck"),
        errors.NegativeTopLevelQuota: (5, "negative_quota"),
        errors.InternalInvariantViolation: (6, "error"),
        errors.GenerationFailed: (1, "gen_failed"),
    }

    def test_every_error_has_its_code_and_outcome(self):
        assert set(HyperfactorError.__subclasses__()) | {HyperfactorError} == set(self.TABLE)
        for cls, pair in self.TABLE.items():
            assert (cls.exit_code, cls.outcome) == pair, cls.__name__


@st.composite
def damaged(draw, text: str) -> bytes:
    """``text`` as UTF-8, truncated or with up to three bytes overwritten."""
    data = bytearray(text.encode())
    if draw(st.booleans()):
        return bytes(data[:draw(st.integers(0, len(data) - 1))])
    for _ in range(draw(st.integers(1, 3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


class TestMalformedInput:
    @pytest.fixture(scope="class")
    def worked_cert(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("worked")
        (root / "inst.json").write_text(WORKED_DOC)
        assert run_cli(["extend", str(root / "inst.json"), "-o", str(root / "cert.json")]) == 0
        return (root / "cert.json").read_text()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_documents_end_in_an_exit_code(self, data, worked_cert, worked_path,
                                                   tmp_path):
        inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
        good_cert = tmp_path / "good_cert.json"
        inst.write_bytes(data.draw(damaged(WORKED_DOC)))
        cert.write_bytes(data.draw(damaged(worked_cert)))
        good_cert.write_text(worked_cert)
        for argv in (["extend", str(inst), "-o", str(tmp_path / "out.json")],
                     ["verify", str(good_cert), str(inst)],
                     ["verify", str(cert), worked_path]):
            assert run_cli(argv) in range(7)


class TestSizeLimit:
    # C(81, 3) * (3240 + 8) slots is over five times the limit; n = m + 1 is
    # below the bound, so only --force gets as far as enumerating the input.
    BIG = {"n": 81, "m": 80, "h": 3, "lambda": 1, "r": [1] * binom(80, 2), "edges": []}

    def test_baranyai_exits_2(self, capsys):
        assert run_cli(["baranyai", "--n", "1000", "--h", "40", "--r", "ones"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "limit" in err[0]

    def test_sweep_cell_too_large(self, capsys):
        assert run_cli(["sweep", "--h", "40", "--m", "40", "--n", "1000"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["outcome"] for row in rows] == ["too_large"]

    def test_gen_copies_over_the_limit(self, capsys):
        # lambda * C(3, 2) = 3e9 copies: rejected before any copy list is built.
        start = time.monotonic()
        assert run_cli(["gen", "--n", "4", "--m", "3", "--h", "2",
                        "--lam", "1000000000", "--r", "3000000000"]) == 2
        assert time.monotonic() - start < 1.0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "limit" in err[0]
        assert run_cli(["sweep", "--h", "2", "--m", "3", "--n", "6",
                        "--lam", "1000000000", "--r", "5000000000"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["outcome"] for row in rows] == ["too_large"]

    def test_forced_extend_and_verify_exit_2(self, tmp_path):
        inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
        inst.write_text(json.dumps(self.BIG))
        cert.write_text(json.dumps({**self.BIG, "report": {}}))
        assert run_cli(["extend", "--force", str(inst)]) == 2
        assert run_cli(["verify", str(cert), str(inst)]) == 2


class TestTrace:
    def test_trace_jsonl_on_stderr(self, worked_path, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert run_cli(["extend", worked_path, "--trace", "-o", str(out)]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [r["stage"] for r in lines] == ["level", "detach", "detach"]
        assert lines[0].keys() == {"stage", "i", "t_ms"} and lines[0]["i"] == 1
        assert lines[1] == {"stage": "detach", "s": 1, "q": 1, "t_ms": lines[1]["t_ms"]}
        stamps = [r["t_ms"] for r in lines]
        assert stamps == sorted(stamps) and stamps[0] >= 0


class TestCollectorPause:
    """Commands run with the cyclic collector paused; ``main`` restores it."""

    def test_collector_back_on_after_exit_0_and_4(self, worked_path, tmp_path, capsys):
        assert gc.isenabled()
        assert run_cli(["extend", worked_path, "-o", str(tmp_path / "cert.json")]) == 0
        assert gc.isenabled()
        bad = tmp_path / "bad.json"
        bad.write_text("{definitely not json")
        assert run_cli(["extend", str(bad)]) == 4
        assert gc.isenabled()

    def test_command_sees_the_collector_off_and_sweep_on(self, worked_path, monkeypatch):
        seen = {}

        def record(name):
            def command(args):
                seen[name] = gc.isenabled()
                return 0
            return command

        monkeypatch.setattr(cli, "cmd_extend", record("extend"))
        monkeypatch.setattr(cli, "cmd_sweep", record("sweep"))
        assert run_cli(["extend", worked_path]) == 0
        assert run_cli(["sweep", "--h", "2", "--m", "2", "--n", "4"]) == 0
        assert seen == {"extend": False, "sweep": True}
        assert gc.isenabled()


# The commands of TestParserReuse, each with its HYPERFACTOR_SEED (None: unset).
# Names in capitals are input files; OUT is a fresh output path per command.
REUSE_SEQUENCE = [
    (["extend", "INST9", "-o", "OUT", "--seed", "5"], None),
    (["extend", "INST9", "-o", "OUT"], None),
    (["extend", "WORKED"], None),
    (["extend", "WORKED", "--force", "-o", "OUT"], None),
    (["extend", "BELOW"], None),
    (["extend", "NOT_JSON"], None),
    (["extend", "WORKED", "-o", "MISSING"], None),
    (["extend", "WORKED"], "abc"),
    (["extend", "INST9", "-o", "OUT"], "5"),
    (["verify", "CERT9", "INST9"], None),
    (["verify", "BROKEN", "WORKED"], None),
    (["verify", "CERT9"], None),
    (["verify", "--bogus", "CERT9", "INST9"], None),
    (["gen", "--n", "9", "--m", "3", "--h", "3", "--r", "ones", "--seed", "9", "-o", "OUT"],
     None),
    (["gen", "--n", "9", "--m", "3", "--h", "3", "--r", "ones", "-o", "OUT"], None),
    (["gen", "--n", "6", "--m", "3", "--h", "2"], None),
    (["gen", "--n", "6", "--m", "3", "--h", "2", "--lambda", "2", "--r", "uniform:2"], None),
    (["gen", "--n", "6", "--m", "3", "--h", "2"], "abc"),
    (["gen", "--n", "6", "--m", "3", "--h", "2"], "77"),
    (["gen", "--n", "x", "--m", "3", "--h", "2"], None),
    (["gen", "--n", "5", "--m", "2", "--h", "2", "--r", "1,x"], None),
    (["sweep", "--h", "2", "--m", "2", "--n", "4"], None),
    (["sweep", "--h", "2", "--m", "2..3", "--n", "2m..2m+1", "--seeds", "2", "-o", "OUT"],
     None),
    (["sweep", "--h", "2", "--m", "2", "--n", "4", "--jobs", "0"], None),
    (["sweep", "--h", "2", "--m", "2m", "--n", "5"], None),
    (["baranyai", "--n", "6", "--h", "2", "-o", "OUT"], None),
    (["baranyai", "--n", "6", "--h", "2", "--seed", "3"], None),
    (["baranyai", "--n", "7", "--h", "3"], None),
    ([], None),
    (["frobnicate"], None),
    (["extend"], None),
    (["--help"], None),
    (["extend", "--help"], None),
    (["sweep", "--help"], None),
]


class TestParserReuse:
    """``main`` builds its parser once per process; reusing it changes no output."""

    @pytest.fixture
    def inputs(self, tmp_path, worked_path):
        inst9 = tmp_path / "inst9.json"
        assert run_cli(["gen", "--n", "9", "--m", "3", "--h", "3", "--r", "ones",
                        "--seed", "9", "-o", str(inst9)]) == 0
        cert9 = tmp_path / "cert9.json"
        assert run_cli(["extend", str(inst9), "-o", str(cert9)]) == 0
        below = {"n": 12, "m": 4, "h": 3, "lambda": 1, "r": [1] * binom(11, 2),   # see exit 3
                 "edges": [{"support": list(s), "alpha": 0, "colors": {str(i + 1): 1}}
                           for i, s in enumerate([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])]}
        files = {"WORKED": worked_path, "INST9": str(inst9), "CERT9": str(cert9)}
        for name, text in (("BELOW", json.dumps(below)), ("NOT_JSON", "{nope"),
                           ("BROKEN", json.dumps({**json.loads(WORKED_DOC), "report": {}}))):
            files[name] = str(tmp_path / f"{name.lower()}.json")
            with open(files[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        files["MISSING"] = str(tmp_path / "missing" / "cert.json")
        return files

    @staticmethod
    def _run(argv, env, files, out, monkeypatch, capsys):
        """(exit code, stdout, stderr, -o bytes) of one command; sweep millis are blanked."""
        if env is None:
            monkeypatch.delenv(cli.SEED_ENV, raising=False)
        else:
            monkeypatch.setenv(cli.SEED_ENV, env)
        if os.path.exists(out):
            os.remove(out)
        argv = [out if arg == "OUT" else files.get(arg, arg) for arg in argv]
        capsys.readouterr()
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse's own exits
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        written = open(out, "rb").read() if os.path.exists(out) else None
        if argv[:1] == ["sweep"]:
            def blank(text):
                rows = list(csv.DictReader(io.StringIO(text)))
                return [{**row, "millis": ""} for row in rows]
            stdout = blank(captured.out)
            written = written and blank(written.decode())
        else:
            stdout = captured.out
        return code, stdout, captured.err, written

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("order", ["forwards", "reversed"])
    def test_reused_parser_matches_a_fresh_one(self, order, inputs, tmp_path, monkeypatch,
                                               capsys):
        steps = list(enumerate(REUSE_SEQUENCE))
        if order == "reversed":
            steps.reverse()
        out = {i: str(tmp_path / f"out{i}") for i, _ in steps}
        reused = {i: self._run(argv, env, inputs, out[i], monkeypatch, capsys)
                  for i, (argv, env) in steps}
        for i, (argv, env) in steps:
            cli.build_parser.cache_clear()
            fresh = self._run(argv, env, inputs, out[i], monkeypatch, capsys)
            assert reused[i] == fresh, argv
        # Seeds change these outputs, so a --seed carried into the next call would show.
        assert reused[0][3] != reused[1][3] and reused[13][3] != reused[14][3]
        codes = [reused[i][0] for i in range(len(REUSE_SEQUENCE))]
        assert codes == [0, 0, 0, 0, 3, 4, 2, 2, 0, 0, 1, ("SystemExit", 2), ("SystemExit", 2),
                         0, 0, 0, 0, 2, 0, ("SystemExit", 2), 2, 0, 0, 2, 2, 0, 0, 2,
                         ("SystemExit", 2), ("SystemExit", 2), ("SystemExit", 2),
                         ("SystemExit", 0), ("SystemExit", 0), ("SystemExit", 0)]

    @pytest.mark.parametrize("argv", [
        ["extend", "WORKED", "-o", "CERT"],
        ["verify", "CERT", "WORKED"],
        ["gen", "--n", "9", "--m", "3", "--h", "3", "--seed", "4"],
    ], ids=["extend", "verify", "gen"])
    def test_a_command_leaves_no_cyclic_garbage(self, argv, worked_path, tmp_path, capsys):
        cert = str(tmp_path / "cert.json")
        argv = [{"WORKED": worked_path, "CERT": cert}.get(arg, arg) for arg in argv]
        assert run_cli(["extend", worked_path, "-o", cert]) == 0   # warm-up
        gc.collect()
        assert run_cli(argv) == 0
        assert gc.collect() == 0

    def test_importing_the_cli_leaves_the_pool_module_unloaded(self):
        package_parent = os.path.dirname(os.path.dirname(hyperfactor.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_parent, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, hyperfactor.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]


class TestDeterminism:
    def test_extend_byte_identical(self, worked_path, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_cli(["extend", worked_path, "-o", str(out), "--seed", "5"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_gen_byte_identical_and_seed_sensitive(self, tmp_path):
        texts = []
        for name, seed in (("a.json", "9"), ("b.json", "9"), ("c.json", "10")):
            out = tmp_path / name
            assert run_cli(["gen", "--n", "9", "--m", "3", "--h", "3",
                            "--r", "ones", "--seed", seed, "-o", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]
        assert texts[0] != texts[2]

    def test_env_seed_used_as_default(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv(cli.SEED_ENV, "77")
        run_cli(["gen", "--n", "6", "--m", "3", "--h", "2", "--r", "ones", "-o", str(out1)])
        monkeypatch.delenv(cli.SEED_ENV)
        run_cli(["gen", "--n", "6", "--m", "3", "--h", "2", "--r", "ones",
                 "--seed", "77", "-o", str(out2)])
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "6", "--m", "3", "--h", "2"],
        ["extend", "WORKED"],
        ["baranyai", "--n", "6", "--h", "2"],
    ])
    def test_bad_env_seed_exits_2(self, argv, worked_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV, "abc")
        argv = [worked_path if arg == "WORKED" else arg for arg in argv]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and cli.SEED_ENV in err[0]


class TestGen:
    def test_gen_inadmissible_exits_2(self, capsys):
        assert run_cli(["gen", "--n", "7", "--m", "3", "--h", "3", "--r", "ones"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: h=3 does not divide r_1·n = 1·7"]

    @pytest.mark.parametrize("argv, message", [
        (["--n", "5", "--m", "2", "--h", "2", "--r", "1,x"], "cannot parse r pattern '1,x'"),
        (["--n", "3", "--m", "3", "--h", "2"], "need 2 <= h <= m < n, got h=2 m=3 n=3"),
    ], ids=["r_pattern", "parameters"])
    def test_bad_values_exit_2(self, argv, message, capsys):
        assert run_cli(["gen"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [f"error: {message}"]

    def test_gen_output_extends(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        cert_path = tmp_path / "cert.json"
        assert run_cli(["gen", "--n", "6", "--m", "3", "--h", "2", "--lam", "2",
                        "--r", "2,2,2,2,2", "--seed", "3", "-o", str(inst_path)]) == 0
        assert run_cli(["extend", str(inst_path), "-o", str(cert_path)]) == 0
        assert run_cli(["verify", str(cert_path), str(inst_path)]) == 0

    def test_gen_failed_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(generate, "_MAX_RESTARTS", 0)
        monkeypatch.setattr(generate, "_NODE_BUDGET", 1)
        assert run_cli(["gen", "--n", "8", "--m", "7", "--h", "2", "--r", "ones"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


def _kill_worker(cell):
    os._exit(3)


_run_sweep_cell = cli.run_sweep_cell


def _kill_worker_at_n8(cell):
    """Run the cell; the cell with n = 8 kills its worker once the other five are done.

    Each other cell leaves a file in $SWEEP_DONE_DIR when it finishes.
    """
    done_dir = os.environ["SWEEP_DONE_DIR"]
    if cell[2] != 8:
        row = _run_sweep_cell(cell)
        open(os.path.join(done_dir, f"m{cell[1]}n{cell[2]}"), "w").close()
        return row
    deadline = time.monotonic() + 60
    while len(os.listdir(done_dir)) < 5 and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.5)   # the last finished row is on its way to the parent
    os._exit(3)


class TestSweep:
    def test_grid_csv(self, tmp_path, capsys):
        assert run_cli(["sweep", "--h", "2", "--m", "2..4", "--n", "2m..2m+4",
                        "--seeds", "2"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 3 * 5 * 2
        assert set(rows[0]) == set(cli.CSV_COLUMNS)
        ok_rows = [r for r in rows if r["outcome"] == "ok"]
        assert ok_rows and all(r["verified"] == "true" for r in ok_rows)
        # even n above bound always succeeds; odd n is inadmissible for ones
        for r in rows:
            if int(r["n"]) % 2 == 0:
                assert r["outcome"] == "ok", r
            else:
                assert r["outcome"] == "inadmissible", r

    def test_empty_grid(self, capsys):
        assert run_cli(["sweep", "--h", "2", "--m", "3..2", "--n", "2m", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == ",".join(cli.CSV_COLUMNS)

    def test_bad_span_exits_2(self, capsys):
        # Only --n may depend on m: the grid reads --h, --m and --lam at m = 0.
        for argv, message in [
                (["--h", "x", "--m", "2", "--n", "5"], "cannot parse span endpoint 'x'"),
                (["--h", "2", "--m", "2", "--n", "1..2..3"], "cannot parse span '1..2..3'"),
                (["--h", "2", "--m", "2", "--n", "2m3"], "cannot parse span endpoint '2m3'"),
                (["--h", "2", "--m", "2m+3", "--n", "2m+1"],
                 "--m span '2m+3' uses m; only --n spans may"),
                (["--h", "m+2", "--m", "2", "--n", "5"],
                 "--h span 'm+2' uses m; only --n spans may"),
                (["--h", "5..2m", "--m", "3", "--n", "8"],   # empty at m = 0 and at m = 1
                 "--h span '5..2m' uses m; only --n spans may"),
                (["--h", "2", "--m", "2", "--n", "5", "--lam", "1..m"],
                 "--lam span '1..m' uses m; only --n spans may")]:
            assert run_cli(["sweep"] + argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.splitlines() == [
                f"error: sweep grid: {message}"], argv

    @pytest.mark.parametrize("flag, value, least", [
        ("--seeds", "-1", 0), ("--jobs", "0", 1), ("--jobs", "-4", 1)])
    def test_count_below_its_minimum_exits_2(self, flag, value, least, capsys):
        assert run_cli(["sweep", "--h", "2", "--m", "2", "--n", "5", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [
            f"error: {flag} must be at least {least}, got {value}"]

    def test_zero_seeds_is_an_empty_sweep(self, capsys):
        assert run_cli(["sweep", "--h", "2", "--m", "2", "--n", "4", "--seeds", "0"]) == 0
        assert capsys.readouterr().out.strip() == ",".join(cli.CSV_COLUMNS)

    def test_forced_below_bound_outcomes(self, tmp_path, capsys):
        assert run_cli(["sweep", "--h", "2", "--m", "4", "--n", "6", "--seeds", "1",
                        "--force"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows[0]["bound"] == "false"
        assert rows[0]["outcome"] in ("ok", "greedy_stuck", "negative_quota")

    def test_crashed_cell_keeps_the_other_rows(self, monkeypatch, capsys):
        real = cli.extend_instance

        def crash_at_n6(inst, seed=None):
            if inst.params.n == 6:
                raise RuntimeError("injected")
            return real(inst, seed=seed)

        monkeypatch.setattr(cli, "extend_instance", crash_at_n6)
        assert run_cli(["sweep", "--h", "2", "--m", "2..3", "--n", "2m..2m+2"]) == 6
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [(row["n"], row["outcome"]) for row in rows] == [
            ("4", "ok"), ("5", "inadmissible"), ("6", "crash"),
            ("6", "crash"), ("7", "inadmissible"), ("8", "ok")]
        err = captured.err.splitlines()
        assert len(err) == 1 and "RuntimeError: injected" in err[0]

    def test_crashed_cell_outranks_unwritable_output(self, monkeypatch, tmp_path, capsys):
        def crash(inst, seed=None):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "extend_instance", crash)
        out = tmp_path / "missing" / "sweep.csv"
        assert run_cli(["sweep", "--h", "2", "--m", "2", "--n", "4", "-o", str(out)]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "RuntimeError: injected" in err[0] and "cannot write" in err[0]

    def test_unverified_cell_exits_6(self, monkeypatch, capsys):
        real = cli.verify_certificate

        def fail_at_n6(cert, inst):
            report = real(cert, inst)
            if inst.params.n == 6:
                report.failures.append({"kind": "regularity", "detail": "forced for test"})
            return report

        monkeypatch.setattr(cli, "verify_certificate", fail_at_n6)
        assert run_cli(["sweep", "--h", "2", "--m", "2..3", "--n", "2m..2m+2"]) == 6
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [(row["n"], row["outcome"], row["verified"]) for row in rows] == [
            ("4", "ok", "true"), ("5", "inadmissible", ""), ("6", "ok", "false"),
            ("6", "ok", "false"), ("7", "inadmissible", ""), ("8", "ok", "true")]
        assert captured.err.splitlines() == [
            "error: 2 sweep cell(s) failed verification, first (2, 2, 6, 1, 'ones', 0, False)"]

    @pytest.mark.parametrize("module, name, broken, kind, outcome", [
        (detach, "solve_transportation", _raising(errors.InternalInvariantViolation),
         "InternalInvariantViolation", "error"),
        (detach, "build_transportation", _raising(errors.InternalInvariantViolation),
         "InternalInvariantViolation", "error"),
        (pipeline, "greedy_color_level", _stuck_greedy,   # stuck above the bound: a bug
         "InternalInvariantViolation", "error"),
    ], ids=["infeasible", "invariant", "greedy_stuck"])
    def test_cell_error_extend_exits_6_on_fails_the_sweep(self, monkeypatch, capsys, module,
                                                          name, broken, kind, outcome):
        monkeypatch.setattr(module, name, broken)
        assert run_cli(["sweep", "--h", "2", "--m", "2..3", "--n", "2m+2"]) == 6
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [(row["n"], row["bound"], row["outcome"]) for row in rows] == [
            ("6", "true", outcome), ("8", "true", outcome)]
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: 2 sweep cell(s) crashed, first (2, 2, 6, 1, 'ones', 0, False): {kind}: "), err

    def test_killed_worker_exits_6(self, monkeypatch, capsys):
        # The pool sends ``_kill_worker`` to its workers by name, so each one dies.
        monkeypatch.setattr(cli, "run_sweep_cell", _kill_worker)
        assert run_cli(["sweep", "--h", "2", "--m", "2", "--n", "4", "--jobs", "2"]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: a sweep worker died"), err

    def test_killed_worker_keeps_the_finished_rows(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "run_sweep_cell", _kill_worker_at_n8)
        monkeypatch.setenv("SWEEP_DONE_DIR", str(tmp_path))
        assert run_cli(["sweep", "--h", "2", "--m", "2..3", "--n", "2m..2m+2",
                        "--jobs", "2"]) == 6
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [(row["m"], row["n"], row["outcome"]) for row in rows] == [
            ("2", "4", "ok"), ("2", "5", "inadmissible"), ("2", "6", "ok"),
            ("3", "6", "ok"), ("3", "7", "inadmissible")]
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: a sweep worker died"), err

    def test_jobs_capped_by_cells_and_cpus(self, monkeypatch):
        sizes = []

        class InlinePool:   # records the pool size and runs each task in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        one_cell = ["sweep", "--h", "2", "--m", "2", "--n", "4", "-o", os.devnull]
        six_cells = ["sweep", "--h", "2", "--m", "2..3", "--n", "2m..2m+2", "-o", os.devnull]
        assert run_cli(one_cell + ["--jobs", "100000"]) == 0
        assert run_cli(six_cells + ["--jobs", "100000"]) == 0
        assert run_cli(six_cells + ["--jobs", "2"]) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert run_cli(six_cells + ["--jobs", "100000"]) == 0
        assert sizes == [1, 3, 2, 1]

    def test_parallel_matches_serial(self, tmp_path):
        args = ["sweep", "--h", "2", "--m", "2..3", "--n", "2m..2m+2", "--seeds", "2"]
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run_cli(args + ["-o", str(serial)]) == 0
        assert run_cli(args + ["--jobs", "4", "-o", str(parallel)]) == 0

        def strip_millis(path):
            rows = list(csv.DictReader(open(path)))
            return [{k: v for k, v in row.items() if k != "millis"} for row in rows]

        assert strip_millis(serial) == strip_millis(parallel)


class TestBaranyai:
    def test_k6_one_factorization(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run_cli(["baranyai", "--n", "6", "--h", "2", "-o", str(out)]) == 0
        cert = parse_certificate(out.read_text())
        assert cert.params.m == 2
        for j in range(cert.params.k):
            edges = [c.support for c in cert.coloring if j in c.colors]
            assert sorted(v for e in edges for v in e) == list(range(1, 7))

    def test_k12_triple_system(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run_cli(["baranyai", "--n", "12", "--h", "3", "-o", str(out)]) == 0
        cert = parse_certificate(out.read_text())
        assert cert.report["pass"] is True
        assert len(cert.params.r) == binom(11, 2)

    def test_nondividing_n_exits_2(self):
        assert run_cli(["baranyai", "--n", "7", "--h", "3"]) == 2
