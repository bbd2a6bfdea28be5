"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper.  Results
are printed (run with ``-s`` to see them live) *and* written under
``benchmarks/results/`` so a full ``pytest benchmarks/ --benchmark-only``
leaves the reproduced artifacts on disk.

The Fig. 5 / Fig. 6 sweep (every application × platform × energy factor)
is computed once per session and shared.
"""

from __future__ import annotations

import os
import pathlib
from typing import List

# Benchmarks measure the product path, and production deployments run
# with dynamic contracts off (they cost about 15-20 % of an in-process
# step — see src/repro/core/contracts.py).  Default them OFF for everything
# under benchmarks/ — before any repro import reads the flag, and via
# the environment so daemon/worker subprocesses spawned by the benches
# inherit the same setting.  An operator can still force them on with
# an explicit REPRO_CONTRACTS=1.  The tier-1 test suite (tests/) is
# unaffected and always runs with contracts on.
os.environ.setdefault("REPRO_CONTRACTS", "0")

import pytest  # noqa: E402

from repro.core.contracts import set_contracts_enabled  # noqa: E402
from repro.hw import all_machines  # noqa: E402
from repro.runtime.sweep import SweepCell, filter_cells, sweep_all  # noqa: E402

# In-process effect of the flag above, in case repro was imported
# before this conftest (e.g. a whole-repo pytest invocation).
if os.environ["REPRO_CONTRACTS"] in ("0", "off", "false"):
    set_contracts_enabled(False)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Repo root, for the ``BENCH_*.json`` trajectory files tracked per PR.
REPO_ROOT = pathlib.Path(__file__).parent.parent

#: Iterations per closed-loop run in the sweeps.  The paper's runs are
#: minutes long (10^4-10^6 heartbeats); 400 keeps the full sweep fast
#: while amortizing the learner's exploration.
SWEEP_ITERATIONS = 400

#: Goals within this fraction of the theoretical maximum factor are
#: treated as feasible for the sweep (the paper likewise skips bars for
#: infeasible targets).
FEASIBILITY_MARGIN = 0.9


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--repeats",
        type=int,
        default=3,
        help=(
            "Runs per load point in timing-sensitive benches; the "
            "reported numbers are medians across repeats."
        ),
    )


@pytest.fixture(scope="session")
def repeats(request) -> int:
    return max(1, request.config.getoption("--repeats"))


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + os.replace).

    A crashed or interrupted bench run must never leave a truncated
    ``BENCH_*.json`` behind — downstream tooling diffs these files
    across PRs and a half-written JSON document would poison the
    trajectory.  ``os.replace`` is atomic on POSIX when source and
    destination share a filesystem, which holds here because the tmp
    file lives next to the destination.
    """
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_result(name: str, text: str) -> pathlib.Path:
    """Persist one benchmark's table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    _atomic_write_text(path, text)
    return path


def write_repo_result(name: str, text: str) -> pathlib.Path:
    """Persist a per-PR trajectory file (``BENCH_*.json``) at repo root."""
    path = REPO_ROOT / name
    _atomic_write_text(path, text)
    return path


def emit(name: str, text: str) -> None:
    """Print a result table and persist it."""
    print(f"\n{text}")
    write_result(name, text)


@pytest.fixture(scope="session")
def machines():
    return all_machines()


@pytest.fixture(scope="session")
def full_sweep() -> List[SweepCell]:
    """The Sec. 5.3/5.4 sweep shared by the Fig. 5 and Fig. 6 benches."""
    return sweep_all(
        n_iterations=SWEEP_ITERATIONS,
        seed=17,
        margin=FEASIBILITY_MARGIN,
    )


def cells_by(cells, machine=None, app=None) -> List[SweepCell]:
    return filter_cells(cells, machine=machine, app=app)
