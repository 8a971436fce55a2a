"""CLI tests: exit-code contract, determinism, sweep CSV, baranyai."""
from __future__ import annotations

import csv
import io
import json
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hyperfactor import cli, errors
from hyperfactor.combinatorics import binom
from hyperfactor.errors import HyperfactorError, InfeasibleTransport
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
                                      ["gen", "--n", "4", "--m", "2", "--h", "2", "--r", "ones"]])
    def test_exit_2_on_unwritable_output(self, argv, worked_path, tmp_path, capsys):
        argv = [worked_path if arg == "WORKED" else arg for arg in argv]
        out = tmp_path / "missing" / "out.json"
        assert run_cli(argv + ["-o", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "cannot write" in err[0]

    def test_exit_4_on_invalid_coloring(self, tmp_path):
        doc = json.loads(WORKED_DOC)
        doc["edges"][0]["colors"] = {"1": 2}   # two copies but lambda = 1
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["extend", str(path)]) == 4

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

    def test_exit_6_on_internal_infeasibility(self, worked_path, monkeypatch):
        from hyperfactor import detach

        def broken(tp):
            raise InfeasibleTransport("forced for test", tp)

        monkeypatch.setattr(detach, "solve_transportation", broken)
        assert run_cli(["extend", worked_path]) == 6


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
        errors.InfeasibleTransport: (6, "infeasible"),
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
    def test_gen_inadmissible_exits_2(self):
        assert run_cli(["gen", "--n", "7", "--m", "3", "--h", "3", "--r", "ones"]) == 2

    def test_gen_output_extends(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        cert_path = tmp_path / "cert.json"
        assert run_cli(["gen", "--n", "6", "--m", "3", "--h", "2", "--lam", "2",
                        "--r", "2,2,2,2,2", "--seed", "3", "-o", str(inst_path)]) == 0
        assert run_cli(["extend", str(inst_path), "-o", str(cert_path)]) == 0
        assert run_cli(["verify", str(cert_path), str(inst_path)]) == 0


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
