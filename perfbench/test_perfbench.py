"""Self-tests of the benchmark: oracles reject shifted outputs, spans bind
where the CLI looks them up, and a checkout without the program fails.

    python3 -m pytest -q perfbench/test_perfbench.py      (about a minute)
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))

SEED = 7
TRACED = ("sweep2q", "measures5q")  # the exact-count workloads run traced


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One invocation per workload: (workload, invocation, CSV text)."""
    out = {}
    for name in workloads.NAMES:
        wl = workloads.make(name, SEED)
        workdir = tmp_path_factory.mktemp(name)
        inv = run.invoke(wl, workdir, "selftest", trace=name in TRACED)
        out[name] = (wl, inv, (workdir / "selftest.csv").read_text(encoding="utf-8"))
    return out


def _shift(text: str, row: int, col: int, delta: float = 1e-6) -> str:
    """CSV text with one data value moved by ``delta``."""
    lines = text.splitlines(keepends=True)
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    cells = lines[data[row]].rstrip("\n").split(",")
    cells[col] = format(float(cells[col]) + delta, ".17g")
    lines[data[row]] = ",".join(cells) + "\n"
    return "".join(lines)


# (row, column) of a value each oracle compares against an independent result
SHIFTED = {
    "sweep2q": lambda wl: (17, 2),
    "measures5q": lambda wl: (wl.notes["oracle_row"], 1),
    "spingas": lambda wl: (1, 1),
    "evolve5q": lambda wl: (wl.notes["oracle_row"], 1),
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_parent_output_passes(outputs, name):
    wl, inv, _ = outputs[name]
    assert inv.exit_code == 0 and inv.ok, inv.reason


@pytest.mark.parametrize("name", workloads.NAMES)
def test_negative_control_shift_fails(outputs, name):
    wl, inv, text = outputs[name]
    assert wl.check(text).ok
    row, col = SHIFTED[name](wl)
    check = wl.check(_shift(text, row, col))
    assert not check.ok, f"a 1e-6 shift at row {row}, column {col} passed the oracle"


def test_spingas_full_exchange_row_shift_fails(outputs):
    wl, _, text = outputs["spingas"]
    assert not wl.check(_shift(text, 2, 1)).ok


def test_exact_counts_sweep2q(outputs):
    wl, inv, _ = outputs["sweep2q"]
    points = wl.items
    assert inv.layers["config.build_liouvillian.calls"] == points + 1  # + the parse-time validation build
    assert inv.layers["dynamics.steady_state.calls"] == points
    assert inv.layers["dynamics.steady_state.eig.calls"] == points


def test_exact_counts_measures5q(outputs):
    wl, inv, _ = outputs["measures5q"]
    rates = wl.items
    assert inv.layers["dynamics.steady_state.calls"] == 4 * rates  # n = 2..5
    assert inv.layers["dynamics.steady_state.invit.calls"] == rates  # n = 5, D^2 = 1024
    assert inv.layers["entanglement.negativity.calls"] == 31 * rates  # 1+3+7+15 bipartitions, 4 pairs, 1 mean
    assert inv.layers["liouville.reset_generator.calls"] == 5  # one per n, plus the parse-time build


def test_missing_program_exits_nonzero(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = bench["command"] + ["--workload", "sweep2q", "--seed", "1", "--seconds", "1", "--trace", "0"]
    argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
