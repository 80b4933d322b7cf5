import json
import os
import runpy
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import resetlb
from resetlb import cli
from resetlb.cli import main
from resetlb.config import (
    ConfigError,
    build_liouvillian,
    gas_config,
    initial_state_from_config,
    measures_weighting,
    parse_config,
    reset_spec_from_config,
)
from resetlb.dynamics import evolve, steady_state
from resetlb.liouville import HamiltonianSpec, ResetSpec, Superoperator, build_hamiltonian, reset_generator

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
EXPERIMENTS = runpy.run_path(str(ROOT / "scripts" / "run_experiments.py"))["EXPERIMENTS"]


def gas_cfg_dict(**over):
    cfg = {
        "model": "gas",
        "unit": "gamma",
        "n_qubits": 2,
        "hamiltonian": {"kind": "ising", "g": 5.0, "omega": 0.0},
        "noise": {"B": 0.0, "C": 2.0, "s": 0.5},
        "reset": {"r": 10.0, "state": "plus"},
        "seed": 7,
    }
    cfg.update(over)
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# --- parsing -------------------------------------------------------------------


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="top level"):
        parse_config(gas_cfg_dict(bogus=1))
    with pytest.raises(ConfigError, match="hamiltonian"):
        parse_config(gas_cfg_dict(hamiltonian={"kind": "ising", "gee": 1}))
    with pytest.raises(ConfigError, match="noise"):
        parse_config(gas_cfg_dict(noise={"B": 0, "C": 1, "s": 0.5, "temp": 2}))
    with pytest.raises(ConfigError, match="reset"):
        parse_config(gas_cfg_dict(reset={"r": 1, "stat": "plus"}))
    with pytest.raises(ConfigError, match="sweep"):
        parse_config(gas_cfg_dict(sweep=[{"param": "reset.r", "min": 0, "max": 1, "points": 2, "wild": 1}]))


def test_model_required():
    with pytest.raises(ConfigError, match="model"):
        parse_config({"hamiltonian": {"kind": "ising"}})


def test_sweep_validation():
    with pytest.raises(ConfigError, match="points"):
        parse_config(gas_cfg_dict(sweep=[{"param": "reset.r", "min": 0, "max": 1, "points": 0}]))
    with pytest.raises(ConfigError, match="scale"):
        parse_config(
            gas_cfg_dict(sweep=[{"param": "reset.r", "min": 0, "max": 1, "points": 2, "scale": "cubic"}])
        )
    cfg = parse_config(
        gas_cfg_dict(sweep=[{"param": "reset.r", "min": 1, "max": 100, "points": 3, "scale": "log"}])
    )
    assert np.allclose(cfg.sweep[0].values(), [1, 10, 100])
    # paths and log bounds are resolved at parse time, not at the first grid point
    with pytest.raises(ConfigError, match="not present"):
        parse_config(gas_cfg_dict(sweep=[{"param": "reset.rate", "min": 0, "max": 1, "points": 2}]))
    for lo, hi in ((0, 100), (1, -1)):
        with pytest.raises(ConfigError, match="positive bounds"):
            parse_config(
                gas_cfg_dict(sweep=[{"param": "reset.r", "min": lo, "max": hi, "points": 3, "scale": "log"}])
            )


MALFORMED = {
    "n_qubits": gas_cfg_dict(n_qubits="two"),
    "seed": gas_cfg_dict(seed=[7]),
    "sweep min": gas_cfg_dict(sweep=[{"param": "reset.r", "min": "low", "max": 1, "points": 2}]),
    "sweep max": gas_cfg_dict(sweep=[{"param": "reset.r", "min": 0, "max": None, "points": 2}]),
    "sweep points": gas_cfg_dict(sweep=[{"param": "reset.r", "min": 0, "max": 1, "points": "2x"}]),
    "sweep axis": gas_cfg_dict(sweep=[5]),
    "section": gas_cfg_dict(noise=[["B", 0.0]]),
    # values int() or float() would truncate, coerce or reject with a non-config error
    "hamiltonian list": gas_cfg_dict(hamiltonian={"kind": "ising", "g": [5.0]}),
    "sweep param": gas_cfg_dict(sweep=[{"param": 5, "min": 0, "max": 1, "points": 2}]),
    "n_qubits fraction": gas_cfg_dict(n_qubits=2.7),
    "n_qubits bool": gas_cfg_dict(n_qubits=True),
    "sweep points fraction": gas_cfg_dict(sweep=[{"param": "reset.r", "min": 0, "max": 1, "points": 2.9}]),
    "sweep points bool": gas_cfg_dict(sweep=[{"param": "reset.r", "min": 0, "max": 1, "points": True}]),
    "seed fraction": gas_cfg_dict(seed=7.5),
    "measures n_max fraction": gas_cfg_dict(measures={"lam": 2.0, "n_min": 0, "n_max": 4.5}),
    "spingas steps fraction": {"model": "spingas", "spingas": {"steps": 10.5}},
    "spingas lattice list": {"model": "spingas", "spingas": {"lattice": [[6], 6]}},
    # reals must be JSON numbers: a boolean or a numeric string is refused, not converted
    "noise s bool": gas_cfg_dict(noise={"B": 0.0, "C": 2.0, "s": True}),
    "noise C string": gas_cfg_dict(noise={"B": 0.0, "C": "2.0", "s": 0.5}),
    "reset r string": gas_cfg_dict(reset={"r": "10", "state": "plus"}),
    "reset purity bool": gas_cfg_dict(reset={"r": 10.0, "state": {"purity": True, "ket": "plus"}}),
    "reset bloch string": gas_cfg_dict(reset={"r": 10.0, "state": {"bloch": ["0", 0.0, 0.5]}}),
    "hamiltonian g bool": gas_cfg_dict(hamiltonian={"kind": "ising", "g": True, "omega": 0.0}),
    "sweep min string": gas_cfg_dict(sweep=[{"param": "reset.r", "min": "0.5", "max": 1, "points": 2}]),
    "measures lam bool": gas_cfg_dict(measures={"lam": True, "n_min": 0, "n_max": 3}),
    "initial phi bool": gas_cfg_dict(initial_state={"type": "weighted_graph", "phi": True}),
    "spingas psi string": {"model": "spingas", "spingas": {"psi": "0.1"}},
    "spingas exchange_prob bool": {"model": "spingas", "spingas": {"exchange_prob": False}},
    "noise B beyond float range": gas_cfg_dict(noise={"B": 10**400, "C": 2.0, "s": 0.5}),
    "custom matrix string": gas_cfg_dict(
        hamiltonian={"kind": "custom", "matrix": [["1", 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}
    ),
    "custom matrix bool": gas_cfg_dict(hamiltonian={"kind": "custom", "matrix": np.eye(4, dtype=bool).tolist()}),
    "initial re string": gas_cfg_dict(
        initial_state={"type": "matrix", "re": [["0.25", 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]}
    ),
    "initial im bool": gas_cfg_dict(
        initial_state={"type": "matrix", "re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4), dtype=bool).tolist()}
    ),
    # keys a section does not read, never silently dropped, and custom matrices
    # that are not a Hermitian operator on n_qubits
    "reset state and states": gas_cfg_dict(reset={"r": 10.0, "state": "plus", "states": ["plus", "zero"]}),
    "omega with ising_transverse": gas_cfg_dict(hamiltonian={"kind": "ising_transverse", "g": 10.0, "omega": 3.0}),
    "b with ising": gas_cfg_dict(hamiltonian={"kind": "ising", "g": 5.0, "b": 0.1}),
    "hamiltonian kind unknown": gas_cfg_dict(hamiltonian={"kind": "heisenberg", "g": 1.0}),
    "custom without matrix": gas_cfg_dict(hamiltonian={"kind": "custom"}),
    "custom non-Hermitian": gas_cfg_dict(hamiltonian={"kind": "custom", "matrix": np.triu(np.ones((4, 4))).tolist()}),
    "custom wrong dimension": gas_cfg_dict(hamiltonian={"kind": "custom", "matrix": [[1.0, 0.0], [0.0, -1.0]]}),
    "custom with g": gas_cfg_dict(hamiltonian={"kind": "custom", "matrix": np.eye(4).tolist(), "g": 5.0}),
}


def test_integral_counts_accept_integral_floats():
    cfg = parse_config(gas_cfg_dict(n_qubits=3.0, sweep=[{"param": "reset.r", "min": 0, "max": 1, "points": 4.0}]))
    assert (cfg.n_qubits, cfg.sweep[0].points) == (3, 4)
    assert type(cfg.n_qubits) is int and type(cfg.sweep[0].points) is int


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_values_are_config_errors(tmp_path, capsys, case):
    with pytest.raises(ConfigError):
        parse_config(MALFORMED[case])
    path = write_cfg(tmp_path, MALFORMED[case])
    assert main(["steady", "--config", path, "--out", str(tmp_path / "m.csv")]) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("points", [2.9, True], ids=["fraction", "bool"])
def test_sweep_points_error_names_points(tmp_path, capsys, points):
    """A bad ``points`` is reported as such, not as a bad ``min`` or ``max``."""
    path = write_cfg(tmp_path, gas_cfg_dict(sweep=[{"param": "reset.r", "min": 0, "max": 1, "points": points}]))
    assert main(["steady", "--config", path, "--out", str(tmp_path / "m.csv")]) == 1
    err = capsys.readouterr().err
    assert "points" in err and "min and max" not in err


def test_custom_hamiltonian_from_config(tmp_path):
    """A Hermitian ``matrix`` builds the Liouvillian of the spin kind it
    spells out, and runs through the CLI."""
    ising = gas_cfg_dict(hamiltonian={"kind": "ising", "g": 5.0, "omega": 1.5})
    matrix = build_hamiltonian(HamiltonianSpec("ising", g=5.0, omega=1.5), 2).real.tolist()
    custom = gas_cfg_dict(hamiltonian={"kind": "custom", "matrix": matrix})
    assert np.array_equal(build_liouvillian(parse_config(custom)).matrix, build_liouvillian(parse_config(ising)).matrix)
    rows = []
    for name, cfg in (("ising", ising), ("custom", custom)):
        out = tmp_path / f"{name}.csv"
        assert main(["steady", "--config", write_cfg(tmp_path, cfg, f"{name}.json"), "--out", str(out)]) == 0
        rows.append([line for line in out.read_text().splitlines() if not line.startswith("#")])
    assert rows[0] == rows[1] and len(rows[0]) == 2


def test_sections_the_model_never_reads_rejected():
    with pytest.raises(ConfigError, match="spingas"):
        parse_config(gas_cfg_dict(spingas={"steps": 10}))
    thermal = gas_cfg_dict(
        model="strongly_coupled",
        hamiltonian={"kind": "ising_transverse", "g": 1.0, "b": 0.3},
        noise={"gamma": 1.0, "beta": 1.0},
    )
    parse_config(thermal)
    with pytest.raises(ConfigError, match="spingas"):
        parse_config({**thermal, "spingas": {}})
    lattice = {"model": "spingas", "spingas": {"lattice": [4, 4], "steps": 10}}
    parse_config(lattice)
    for section in ("hamiltonian", "noise", "reset", "initial_state", "measures"):
        with pytest.raises(ConfigError, match=section):
            parse_config({**lattice, section: {}})


def test_with_overrides_unknown_param():
    cfg = parse_config(gas_cfg_dict())
    with pytest.raises(ConfigError):
        cfg.with_overrides({"reset.rate": 1.0})
    out = cfg.with_overrides({"reset.r": 3.0})
    assert out.reset["r"] == 3.0


def test_with_overrides_nested_paths_copy():
    base = parse_config(gas_cfg_dict(reset={"r": 1.0, "state": {"purity": 1.0, "ket": "plus"}}))
    out = base.with_overrides({"reset.state.purity": 0.9, "reset.r": 2.0})
    assert out.reset == {"r": 2.0, "state": {"purity": 0.9, "ket": "plus"}}
    assert base.reset == {"r": 1.0, "state": {"purity": 1.0, "ket": "plus"}}
    with pytest.raises(ConfigError, match="not present"):
        base.with_overrides({"reset.state.colour": 0.5})
    with pytest.raises(ConfigError, match="not present"):
        parse_config(gas_cfg_dict()).with_overrides({"reset.state.purity": 0.9})  # "state": "plus"
    with pytest.raises(ConfigError, match="unknown sweep parameter"):
        base.with_overrides({"sweep.points": 3})
    graph = parse_config(gas_cfg_dict(initial_state={"type": "weighted_graph", "phi": 0.0}))
    assert graph.with_overrides({"initial_state.phi": 1.5}).initial_state["phi"] == 1.5
    assert graph.initial_state["phi"] == 0.0


def test_mixed_reset_from_config_equals_reset_spec():
    for purity in (1.0, 0.98):
        spec = reset_spec_from_config({"r": 3.0, "state": {"purity": purity, "ket": "plus"}}, 2)
        want = ResetSpec.pure(3.0, 2, "+") if purity == 1.0 else ResetSpec.mixed(3.0, 2, purity, "+")
        assert all(np.array_equal(a, b) for a, b in zip(spec.states, want.states))
        assert np.array_equal(reset_generator(2, spec).matrix, reset_generator(2, want).matrix)


def test_reset_state_forms():
    cfg = parse_config(gas_cfg_dict(reset={"r": 1.0, "state": {"purity": 0.9, "ket": "plus"}}))
    assert build_liouvillian(cfg).n_qubits == 2
    cfg = parse_config(gas_cfg_dict(reset={"r": 1.0, "state": {"bloch": [0.2, 0.0, 0.1]}}))
    assert build_liouvillian(cfg).n_qubits == 2
    with pytest.raises(ConfigError):
        parse_config(gas_cfg_dict(reset={"r": 1.0, "state": "sideways"}))
    with pytest.raises(ConfigError):
        parse_config(gas_cfg_dict(reset={"r": 1.0, "state": {"purity": 2.0}}))
    with pytest.raises(ConfigError, match="bloch alone"):
        parse_config(gas_cfg_dict(reset={"r": 1.0, "state": {"bloch": [0.2, 0.0, 0.1], "purity": 0.5}}))


def test_initial_state_forms():
    cfg = parse_config(gas_cfg_dict(initial_state={"type": "weighted_graph", "phi": np.pi}))
    rho = initial_state_from_config(cfg)
    from resetlb.entanglement import negativity

    assert abs(negativity(rho, (0,)) - 0.5) < 1e-12
    cfg = parse_config(gas_cfg_dict())
    rho = initial_state_from_config(cfg)
    assert abs(rho.matrix[0, 0] - 0.25) < 1e-12
    with pytest.raises(ConfigError):
        initial_state_from_config(parse_config(gas_cfg_dict(initial_state={"type": "vortex"})))
    # keys are checked per type, so a swept phi cannot be silently ignored
    for bad in (
        {"type": "product", "phi": 1.0},
        {"phi": 1.0},
        {"type": "weighted_graph", "phi": 1.0, "ket": "plus"},
        {"type": "matrix", "re": np.eye(4).tolist(), "phi": 1.0},
    ):
        with pytest.raises(ConfigError, match="initial_state"):
            parse_config(gas_cfg_dict(initial_state=bad))
    for rows in ([[0.25, 0, 0, 0]] * 3 + [[0.25, 0, 0]], [0.25, 0.25, 0.25, 0.25]):  # ragged, flat
        with pytest.raises(ConfigError, match="equal-length lists"):
            parse_config(gas_cfg_dict(initial_state={"type": "matrix", "re": rows}))
    mixed = {"type": "matrix", "re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()}
    cfg = parse_config(gas_cfg_dict(initial_state=mixed))
    assert abs(initial_state_from_config(cfg).matrix[3, 3] - 0.25) < 1e-12


def test_spingas_config_round_trip():
    cfg = parse_config(
        {
            "model": "spingas",
            "spingas": {"lattice": [4, 4], "n_env": 3, "psi": 0.1, "phi": 0.01, "exchange_prob": 0.2, "steps": 10},
            "seed": 3,
        }
    )
    gc = gas_config(cfg)
    assert gc.lattice == (4, 4) and gc.seed == 3


def test_strongly_coupled_requires_noise():
    with pytest.raises(ConfigError):
        parse_config(
            {
                "model": "strongly_coupled",
                "hamiltonian": {"kind": "ising_transverse", "g": 1.0, "b": 0.1},
            }
        )


# --- CLI ------------------------------------------------------------------------


def test_cli_steady_reproducible_bytes(tmp_path):
    cfg = gas_cfg_dict(sweep=[{"param": "reset.r", "min": 0.5, "max": 10, "points": 4}])
    path = write_cfg(tmp_path, cfg)
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert main(["steady", "--config", path, "--out", out1, "--no-timestamp"]) == 0
    assert main(["steady", "--config", path, "--out", out2, "--no-timestamp"]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    text = b1.decode()
    assert text.startswith("# resetlb steady dataset\n")
    assert "# config:" in text and "# seed: 7" in text
    assert "\r" not in text
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header == "reset.r,negativity"


def test_cli_steady_timestamp_line(tmp_path):
    path = write_cfg(tmp_path, gas_cfg_dict())
    out = str(tmp_path / "t.csv")
    assert main(["steady", "--config", path, "--out", out]) == 0
    assert any(l.startswith("# timestamp:") for l in open(out).read().splitlines())


def test_cli_dump_states(tmp_path):
    cfg = gas_cfg_dict(sweep=[{"param": "reset.r", "min": 1, "max": 2, "points": 2}])
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "d.csv")
    assert main(["steady", "--config", path, "--out", out, "--no-timestamp", "--dump-states"]) == 0
    dumped = json.load(open(out + ".states.json"))
    assert len(dumped) == 2
    mat = np.array(dumped[0]["re"]) + 1j * np.array(dumped[0]["im"])
    assert abs(np.trace(mat) - 1.0) < 1e-9


def test_cli_single_point_sweep(tmp_path):
    cfg = gas_cfg_dict(sweep=[{"param": "reset.r", "min": 10, "max": 10, "points": 1}])
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "one.csv")
    assert main(["steady", "--config", path, "--out", out, "--no-timestamp"]) == 0
    rows = [l for l in open(out).read().splitlines() if not l.startswith("#")]
    assert len(rows) == 2  # header + one row
    r_val, neg = rows[1].split(",")
    assert float(r_val) == 10.0
    assert abs(float(neg) - 58.0 / 4368.0) < 1e-9


def test_cli_rejects_threads_flag(tmp_path):
    path = write_cfg(tmp_path, gas_cfg_dict())
    out = str(tmp_path / "t.csv")
    assert main(["steady", "--config", path, "--out", out, "--no-timestamp", "--threads", "4"]) == 1


def test_cli_evolve_columns(tmp_path):
    cfg = gas_cfg_dict(initial_state={"type": "weighted_graph", "phi": 0.0})
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "evolve.csv")
    assert main(["evolve", "--config", path, "--out", out, "--t-max", "1.0", "--points", "5", "--no-timestamp"]) == 0
    lines = [l for l in open(out).read().splitlines() if not l.startswith("#")]
    assert lines[0] == "t,negativity,trace,min_eigenvalue"
    assert len(lines) == 6
    for row in lines[1:]:
        t, neg, tr, mn = (float(x) for x in row.split(","))
        assert abs(tr - 1.0) < 1e-9 and mn > -1e-9


def test_cli_evolve_sweep_blocks_equal_unswept_runs(tmp_path, monkeypatch):
    """Each grid point's rows equal its own unswept run, in grid order, and
    R is built once per reset rate whichever axis varies fastest."""
    times = ["--t-max", "0.5", "--points", "4", "--no-timestamp"]
    for phi_outer in (False, True):
        axes = [
            {"param": "reset.r", "min": 1.0, "max": 4.0, "points": 2},
            {"param": "initial_state.phi", "min": 0.0, "max": np.pi, "points": 3},
        ]
        if phi_outer:
            axes.reverse()
        cfg = gas_cfg_dict(initial_state={"type": "weighted_graph", "phi": 0.0}, sweep=axes)
        builds = []
        monkeypatch.setattr(cli, "build_liouvillian", lambda point: builds.append(point.reset) or build_liouvillian(point))
        out = tmp_path / "swept.csv"
        assert main(["evolve", "--config", write_cfg(tmp_path, cfg), "--out", str(out), *times]) == 0
        assert [b["r"] for b in builds] == [1.0, 4.0]
        monkeypatch.undo()
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == ",".join(a["param"] for a in axes) + ",t,negativity,trace,min_eigenvalue"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 2 * 3 * 4
        grid = list(dict.fromkeys((r[0], r[1]) for r in rows))
        assert len(grid) == 6
        assert grid == sorted(grid, key=lambda p: (float(p[0]), float(p[1])))  # last axis fastest
        for point in grid:
            r, phi = reversed(point) if phi_outer else point
            single = dict(cfg, sweep=[], reset={"r": float(r), "state": "plus"},
                          initial_state={"type": "weighted_graph", "phi": float(phi)})
            ref = tmp_path / "single.csv"
            assert main(["evolve", "--config", write_cfg(tmp_path, single, "single.json"), "--out", str(ref), *times]) == 0
            want = [l for l in ref.read_text().splitlines() if not l.startswith("#")][1:]
            assert [",".join(row[2:]) for row in rows if (row[0], row[1]) == point] == want


def test_cli_evolve_initial_state_sweep_builds_once(tmp_path, monkeypatch):
    """``time_evolution`` sweeps nine initial states over one generator,
    so R is built once."""
    builds = []
    monkeypatch.setattr(cli, "build_liouvillian", lambda point: builds.append(point) or build_liouvillian(point))
    out = tmp_path / "evolve.csv"
    args = ["--config", str(CONFIGS / "time_evolution.json"), "--out", str(out), "--t-max", "2.0", "--points", "3"]
    assert main(["evolve", *args, "--no-timestamp"]) == 0
    assert len(builds) == 1
    assert len(out.read_text().splitlines()) == 4 + 9 * 3  # three header lines and the column names


def test_cli_spectrum_rejects_sweep(tmp_path, capsys):
    cfg = gas_cfg_dict(sweep=[{"param": "reset.r", "min": 1.0, "max": 2.0, "points": 2}])
    out = str(tmp_path / "spec.csv")
    assert main(["spectrum", "--config", write_cfg(tmp_path, cfg), "--out", out, "--no-timestamp"]) == 1
    assert "spectrum takes no sweep" in capsys.readouterr().err


def test_cli_spectrum(tmp_path):
    path = write_cfg(tmp_path, gas_cfg_dict())
    out = str(tmp_path / "spec.csv")
    assert main(["spectrum", "--config", path, "--out", out, "--no-timestamp"]) == 0
    lines = [l for l in open(out).read().splitlines() if not l.startswith("#")]
    mults = [int(row.split(",")[2]) for row in lines[1:]]
    assert sum(mults) == 16


def test_cli_spingas(tmp_path):
    cfg = {
        "model": "spingas",
        "spingas": {"lattice": [4, 4], "n_env": 3, "psi": 0.1, "phi": 0.01, "exchange_prob": 0.0, "steps": 25},
        "sweep": [{"param": "spingas.exchange_prob", "min": 0.0, "max": 1.0, "points": 3}],
        "seed": 12,
    }
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "gas.csv")
    assert main(["spingas", "--config", path, "--out", out, "--runs", "40", "--no-timestamp"]) == 0
    lines = [l for l in open(out).read().splitlines() if not l.startswith("#")]
    assert lines[0] == "spingas.exchange_prob,negativity,stderr"
    final = lines[-1].split(",")
    assert float(final[0]) == 1.0 and float(final[1]) < 1e-12


def test_cli_measures_and_guard(tmp_path):
    cfg = {
        "model": "gas",
        "n_qubits": 2,
        "hamiltonian": {"kind": "ising", "g": 20.0, "omega": 50.0},
        "noise": {"B": 0.0, "C": 2.0, "s": 0.5},
        "reset": {"r": 1.0, "state": "plus"},
        "measures": {"lam": 2.0, "n_min": 0, "n_max": 3},
        "sweep": [{"param": "reset.r", "min": 20, "max": 40, "points": 3}],
        "seed": 1,
    }
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "meas.csv")
    assert main(["measures", "--config", path, "--out", out, "--no-timestamp"]) == 0
    lines = [l for l in open(out).read().splitlines() if not l.startswith("#")]
    assert lines[0] == "r,measure_i,measure_ii,measure_iii"
    # the dense limit is the n_qubits one: n_max = 6 parses, 7 is refused at parse time
    cfg["measures"]["n_max"] = 6
    assert parse_config(cfg).measures["n_max"] == 6
    cfg["measures"]["n_max"] = 7
    with pytest.raises(ConfigError, match="n_max"):
        parse_config(cfg)
    path = write_cfg(tmp_path, cfg, "big.json")
    assert main(["measures", "--config", path, "--out", out, "--no-timestamp", "--force-large"]) == 1
    assert main(["measures", "--config", path, "--out", out, "--no-timestamp"]) == 1


def test_measures_large_lam_weights_are_finite():
    """exp(-lam) underflows at lam = 800; the weights are normalized in log
    space, so they stay finite and put the mass on n_max (ratio lam / n_max)."""
    w = measures_weighting(parse_config(gas_cfg_dict(measures={"lam": 800, "n_min": 0, "n_max": 5})))
    assert np.all(np.isfinite(w.weights))
    assert abs(sum(w.weights) - 1.0) < 1e-12
    assert w.weight(5) > 0.99


@pytest.mark.parametrize("name", ["measures_gas.json", "measures_thermal.json"])
def test_measures_reweighting_equals_per_rate_build(name):
    """measures re-weights r-free and unit-reset generators; that must equal a build at r."""
    cfg = parse_config(str(CONFIGS / name))
    for n in (2, 3, 4):
        base = build_liouvillian(replace(cfg, reset={}), n, merge_degenerate=True)
        unit = reset_generator(n, reset_spec_from_config({**cfg.reset, "r": 1.0}, n))
        for r in (5.0, 37.5, 150.0):
            direct = build_liouvillian(cfg.with_overrides({"reset.r": r}), n, merge_degenerate=True)
            assert np.array_equal(direct.matrix, base.matrix + r * unit.matrix), (n, r)


def test_cli_measures_strongly_coupled(tmp_path):
    cfg = {
        "model": "strongly_coupled",
        "n_qubits": 2,
        "hamiltonian": {"kind": "ising_gradient", "g": 15.0, "b": 0.1},
        "noise": {"gamma": 1.0, "beta": 0.2},
        "reset": {"r": 1.0, "state": "plus"},
        "measures": {"lam": 2.0, "n_min": 0, "n_max": 3},
        "sweep": [{"param": "reset.r", "min": 50, "max": 150, "points": 2}],
        "seed": 1,
    }
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "mt.csv")
    assert main(["measures", "--config", path, "--out", out, "--no-timestamp"]) == 0
    rows = [l.split(",") for l in open(out).read().splitlines() if not l.startswith("#")][1:]
    assert all(float(x) > 0 for row in rows for x in row[1:])  # entangled at these rates


def test_cli_evolve_zero_generator_constant_columns(tmp_path):
    cfg = {
        "model": "gas",
        "n_qubits": 2,
        "hamiltonian": {"kind": "ising", "g": 0.0, "omega": 0.0},
        "seed": 0,
    }
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "const.csv")
    assert main(["evolve", "--config", path, "--out", out, "--t-max", "2.0", "--points", "4", "--no-timestamp"]) == 0
    rows = [l.split(",") for l in open(out).read().splitlines() if not l.startswith("#")][1:]
    negs = {row[1] for row in rows}
    traces = {row[2] for row in rows}
    assert len(negs) == 1 and len(traces) == 1


R_SWEEP = [{"param": "reset.r", "min": 20, "max": 40, "points": 2}]
EVOLVE_CFG = gas_cfg_dict()
SPINGAS_CFG = {"model": "spingas", "spingas": {"lattice": [3, 3], "n_env": 2, "steps": 5}}
CLI_CONFIG_ERRORS = {
    # values PoissonWeighting, the initial state, the time grid or the ensemble cannot take
    "measures lam text": ("measures", gas_cfg_dict(measures={"lam": "abc"}, sweep=R_SWEEP), []),
    "measures lam zero": ("measures", gas_cfg_dict(measures={"lam": 0.0}, sweep=R_SWEEP), []),
    "measures lam negative": ("measures", gas_cfg_dict(measures={"lam": -2.0}, sweep=R_SWEEP), []),
    "measures n_min above n_max": ("measures", gas_cfg_dict(measures={"n_min": 4, "n_max": 3}, sweep=R_SWEEP), []),
    "measures n_max below 2": ("measures", gas_cfg_dict(measures={"n_min": 0, "n_max": 1}, sweep=R_SWEEP), []),
    "initial phi list": ("evolve", gas_cfg_dict(initial_state={"type": "weighted_graph", "phi": [1.0]}), []),
    "initial re text": ("evolve", gas_cfg_dict(initial_state={"type": "matrix", "re": "abc"}), []),
    "initial matrix 2x2": ("evolve", gas_cfg_dict(initial_state={"type": "matrix", "re": [[0.5, 0], [0, 0.5]]}), []),
    "evolve t-max nan": ("evolve", EVOLVE_CFG, ["--t-max", "nan"]),
    "evolve t-max inf": ("evolve", EVOLVE_CFG, ["--t-max", "inf"]),
    "evolve t-max negative": ("evolve", EVOLVE_CFG, ["--t-max", "-1"]),
    "evolve points zero": ("evolve", EVOLVE_CFG, ["--t-max", "1", "--points", "0"]),
    "spingas runs zero": ("spingas", SPINGAS_CFG, ["--runs", "0"]),
}


@pytest.mark.parametrize("case", sorted(CLI_CONFIG_ERRORS))
def test_cli_invalid_values_are_config_errors(tmp_path, capsys, case):
    command, cfg, extra = CLI_CONFIG_ERRORS[case]
    if command == "evolve" and not extra:
        extra = ["--t-max", "1", "--points", "3"]
    path = write_cfg(tmp_path, cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "e.csv"), *extra]) == 1
    assert capsys.readouterr().err.startswith("config error:")


SWEEP_POINT_ERRORS = {
    # parse time builds the config's own point; the sweep leaves the section's range later
    "steady noise.s": (
        "steady",
        gas_cfg_dict(sweep=[{"param": "noise.s", "min": 0, "max": 1.5, "points": 4}]),
        "s must lie in [0, 1] at noise.s=1.5",
    ),
    "evolve reset purity": (
        "evolve",
        gas_cfg_dict(
            reset={"r": 10.0, "state": {"purity": 0.9, "ket": "plus"}},
            sweep=[{"param": "reset.state.purity", "min": 0.9, "max": 1.1, "points": 3}],
        ),
        "purity must lie in [0, 1] at reset.state.purity=1.1",
    ),
    # measures never builds a generator at a swept rate, so ResetSpec's r >= 0 is read per rate
    "measures negative rate": (
        "measures",
        gas_cfg_dict(
            measures={"lam": 2.0, "n_min": 0, "n_max": 3},
            sweep=[{"param": "reset.r", "min": -0.5, "max": 2.0, "points": 2}],
        ),
        "reset rate must be non-negative at reset.r=-0.5",
    ),
}


@pytest.mark.parametrize("case", sorted(SWEEP_POINT_ERRORS))
def test_sweep_point_config_error_names_the_point(tmp_path, capsys, case):
    command, cfg, message = SWEEP_POINT_ERRORS[case]
    extra = ["--t-max", "1", "--points", "3"] if command == "evolve" else []
    out = tmp_path / "p.csv"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


def test_cli_exit_code_config_error(tmp_path):
    path = write_cfg(tmp_path, {"model": "gas", "bogus": 1})
    assert main(["steady", "--config", path, "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["steady", "--config", str(tmp_path / "missing.json"), "--out", "x.csv"]) == 1


def test_cli_exit_code_solver_error(tmp_path):
    # purely unitary model: degenerate null space surfaces as a solver error
    cfg = {
        "model": "gas",
        "n_qubits": 2,
        "hamiltonian": {"kind": "ising", "g": 1.0, "omega": 1.0},
        "seed": 0,
    }
    path = write_cfg(tmp_path, cfg)
    assert main(["steady", "--config", path, "--out", str(tmp_path / "y.csv")]) == 2


def test_cli_zero_generator_five_qubits_is_solver_error(tmp_path, capsys):
    # no coupling, field, noise or reset: L = 0 and every state is steady
    cfg = {
        "model": "gas",
        "unit": "B",
        "n_qubits": 5,
        "hamiltonian": {"kind": "ising", "g": 0.0, "omega": 0.0},
        "seed": 1,
    }
    path = write_cfg(tmp_path, cfg)
    assert main(["steady", "--config", path, "--out", str(tmp_path / "z.csv")]) == 2
    err = capsys.readouterr().err
    assert "steady-state solve failed at" in err
    assert "degenerate null space" in err


def run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(resetlb.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)


def test_import_cli_does_not_load_scipy():
    proc = run_python("import sys, resetlb.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_evolve_command_does_not_load_scipy(tmp_path):
    """An evolve run, error estimate included, needs no scipy module."""
    out = tmp_path / "evolve.csv"
    args = ["evolve", "--config", str(CONFIGS / "time_evolution.json"), "--out", str(out), "--t-max", "2.0", "--points", "21"]
    code = (
        "import logging, sys\n"
        "from resetlb.cli import main\n"
        "logging.basicConfig(level=logging.DEBUG, stream=sys.stderr)\n"
        f"code = main({args!r})\n"
        "print(code, 'scipy' in sys.modules)"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"
    assert proc.stderr.count("error_estimate=") == 9  # one record per sweep point
    assert len(out.read_text().splitlines()) == 5 + 9 * 21  # four header lines and the column names


def test_spingas_command_does_not_load_scipy(tmp_path):
    """A spin-gas sweep needs no scipy module (its peak RSS counts on
    that), and its 21 points share one kinematic pass."""
    out = tmp_path / "spingas.csv"
    args = ["spingas", "--config", str(CONFIGS / "spingas_sweep.json"), "--out", str(out), "--runs", "20"]
    code = (
        "import logging, sys\n"
        "from resetlb.cli import main\n"
        "logging.basicConfig(level=logging.DEBUG, stream=sys.stderr)\n"
        f"code = main({args!r})\n"
        "print(code, 'scipy' in sys.modules)"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"
    assert proc.stderr.count("spin-gas pass: points=21 runs=20 steps=5000") == 1
    assert len(out.read_text().splitlines()) == 5 + 21  # four header lines and the column names


def test_two_qubit_steady_command_does_not_load_scipy(tmp_path):
    """A D^2 = 16 generator is one small diagonal block, so its steady
    solves need no strong-component search and no scipy module."""
    out = tmp_path / "steady.csv"
    args = ["steady", "--config", str(CONFIGS / "toy_model_cut.json"), "--out", str(out)]
    proc = run_python(f"import sys\nfrom resetlb.cli import main\nprint(main({args!r}), 'scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"
    assert len(out.read_text().splitlines()) == 5 + 120  # four header lines and the column names


def test_gas_measures_command_does_not_load_scipy(tmp_path):
    """The gas R up to n = 5 splits into diagonal blocks of 64, each solved
    by numpy, and the strong components come from the own search: a
    ``measures`` run on the gas config needs no scipy module."""
    out = tmp_path / "measures.csv"
    args = ["measures", "--config", str(CONFIGS / "measures_gas.json"), "--no-timestamp", "--out", str(out)]
    proc = run_python(f"import sys\nfrom resetlb.cli import main\nprint(main({args!r}), 'scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"
    assert len(out.read_text().splitlines()) == 4 + 30  # three header lines and the column names


def test_solvers_never_read_the_dense_matrix(monkeypatch, tmp_path):
    """steady_state, evolve and the measures command work on the stored
    non-zeros of R: a counting ``Superoperator.matrix`` sees no read, at
    n = 2 (one block) and n = 5 (16 blocks) and through the whole
    ``measures_gas`` run."""
    reads, dense = [], Superoperator.matrix
    monkeypatch.setattr(Superoperator, "matrix", property(lambda self: reads.append(self) or dense.fget(self)))
    cfg = parse_config(str(CONFIGS / "measures_gas.json"))
    for n in (2, 5):
        point = replace(cfg, n_qubits=n)
        lam = build_liouvillian(point)
        steady_state(lam)
        evolve(lam, initial_state_from_config(point), [0.0, 0.01, 0.02])
    out = tmp_path / "measures.csv"
    assert main(["measures", "--config", str(CONFIGS / "measures_gas.json"), "--no-timestamp", "--out", str(out)]) == 0
    assert reads == []


def test_five_qubit_measures_build_holds_one_matrix():
    """Each generator keeps only its non-zeros and ``assemble`` scatters them
    into the one D^2 x D^2 buffer of the result: building the n = 5
    ``measures_gas`` generator allocates at most 1.5 dense 8 MiB matrices."""
    import tracemalloc

    cfg = parse_config(str(CONFIGS / "measures_gas.json"))
    tracemalloc.start()
    try:
        build_liouvillian(cfg, 5, merge_degenerate=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * 2**20


def test_experiment_table_names_every_config():
    names = [name for _, name, _ in EXPERIMENTS]
    assert sorted(names) == sorted(p.stem for p in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_config_parses_and_runs_reduced(tmp_path, name):
    """Every shipped config parses; a copy cut to 2 points per sweep axis
    (n_max 3 for measures, 20 runs x 50 steps for the spin gas, 3 time
    points for evolve) runs through the CLI with the subcommand and
    arguments of its ``run_experiments.py`` row, giving one data row per
    grid point and time."""
    parse_config(str(CONFIGS / name))
    command, extra = next((cmd, args) for cmd, stem, args in EXPERIMENTS if f"{stem}.json" == name)
    raw = json.loads((CONFIGS / name).read_text())
    for axis in raw.get("sweep", []):
        axis["points"] = 2
    reduced, rows_per_point = [], 1
    if command == "spingas":
        raw["spingas"]["steps"] = 50
        reduced = ["--runs", "20"]
    elif command == "measures":
        raw["measures"]["n_max"] = 3
    elif command == "evolve":
        reduced, rows_per_point = ["--points", "3"], 3
    out = tmp_path / "out.csv"
    argv = [command, "--config", write_cfg(tmp_path, raw), "--out", str(out), "--no-timestamp", *extra, *reduced]
    assert main(argv) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 1 + rows_per_point * 2 ** len(raw.get("sweep", []))


def test_cli_verify_passes():
    assert main(["verify"]) == 0


def test_cli_seed_override_changes_header(tmp_path):
    path = write_cfg(tmp_path, gas_cfg_dict())
    out = str(tmp_path / "s.csv")
    assert main(["steady", "--config", path, "--out", out, "--no-timestamp", "--seed", "99"]) == 0
    assert "# seed: 99" in open(out).read()
