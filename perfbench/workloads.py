"""The benchmark's workloads and the inputs each one makes from its seed.

Every workload is a list of cases. A case is one sweep cell: parameters plus
the seed that ``random_instance`` (and ``cli.run_sweep_cell``) generates its
instance from. The benchmark generates each instance once during set-up and
hands the program only the instance JSON.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from hyperfactor import Parameters, bound_holds, is_admissible
from hyperfactor.cli import build_r_vector
from hyperfactor.errors import InadmissibleParameters

# Seeds per sweep_small grid point; the grid has 154 admissible points, so a
# pass is 462 cells.
SWEEP_SEEDS = 3
# The traced run of sweep_small covers every TRACE_STRIDE-th cell of the pass.
TRACE_STRIDE = 8


@dataclass(frozen=True)
class Case:
    h: int
    m: int
    n: int
    lam: int
    r_pattern: str
    seed: int

    def params(self) -> Parameters:
        r = build_r_vector(self.r_pattern, self.n, self.h, self.lam)
        return Parameters(n=self.n, m=self.m, h=self.h, lam=self.lam, r=r)

    def cell(self) -> tuple:
        """The argument ``cli.run_sweep_cell`` takes for this case (no --force)."""
        return (self.h, self.m, self.n, self.lam, self.r_pattern, self.seed, False)


def sweep_grid() -> list[tuple[int, int, int, int, str]]:
    """Admissible above-bound points (h, m, n, lam, r_pattern) of sweep_small.

    h=2 takes m in 2..8 and h=3 takes m in 3..4; n runs from the smallest
    value above the extension bound up to 3 more; lambda in 1..3; r is ones,
    uniform:2 or uniform:3. Points failing admissibility are dropped.
    """
    points = []
    for h, m_values in ((2, range(2, 9)), (3, range(3, 5))):
        for m in m_values:
            n0 = m + 1
            while not bound_holds(n0, m, h):
                n0 += 1
            for n in range(n0, n0 + 4):
                for lam in (1, 2, 3):
                    for r_pattern in ("ones", "uniform:2", "uniform:3"):
                        try:
                            case = Case(h, m, n, lam, r_pattern, 0)
                            params = case.params()
                        except InadmissibleParameters:
                            continue
                        if is_admissible(params):
                            points.append((h, m, n, lam, r_pattern))
    return points


def sweep_cases(seed: int) -> list[Case]:
    cases = [Case(*point, seed=seed * SWEEP_SEEDS + s)
             for point in sweep_grid() for s in range(SWEEP_SEEDS)]
    # A seeded shuffle makes every prefix of the pass a random sample of the
    # grid, so a run that ends mid-pass still measures the whole grid's mix.
    random.Random(seed).shuffle(cases)
    return cases


@dataclass(frozen=True)
class Workload:
    name: str
    cases: list[Case]
    # Indices of the cases one round of the traced run covers.
    traced: list[int]
    # True when a "cell" is one cli.run_sweep_cell call; otherwise it is the
    # extend op plus the verify op on the workload's single instance.
    sweep: bool


def make_workload(name: str, seed: int) -> Workload:
    if name == "h2_dense":
        return Workload(name, [Case(2, 40, 160, 1, "ones", seed)], [0], sweep=False)
    if name == "h3_sparse":
        return Workload(name, [Case(3, 9, 33, 1, "ones", seed)], [0], sweep=False)
    if name == "sweep_small":
        cases = sweep_cases(seed)
        return Workload(name, cases, list(range(0, len(cases), TRACE_STRIDE)), sweep=True)
    raise ValueError(f"unknown workload {name!r}")


# The smallest h=2 grid point: run once during set-up to load lazily imported
# code before the first timed op.
WARMUP_CASE = Case(2, 2, 4, 1, "ones", 0)
