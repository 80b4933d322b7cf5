import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import resetlb
from resetlb.cli import main
from resetlb.config import (
    ConfigError,
    build_liouvillian,
    gas_config,
    initial_state_from_config,
    parse_config,
    reset_spec_from_config,
)
from resetlb.liouville import reset_generator

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def test_with_overrides_unknown_param():
    cfg = parse_config(gas_cfg_dict())
    with pytest.raises(ConfigError):
        cfg.with_overrides({"reset.rate": 1.0})
    out = cfg.with_overrides({"reset.r": 3.0})
    assert out.reset["r"] == 3.0


def test_reset_state_forms():
    cfg = parse_config(gas_cfg_dict(reset={"r": 1.0, "state": {"purity": 0.9, "ket": "plus"}}))
    assert build_liouvillian(cfg).n_qubits == 2
    cfg = parse_config(gas_cfg_dict(reset={"r": 1.0, "state": {"bloch": [0.2, 0.0, 0.1]}}))
    assert build_liouvillian(cfg).n_qubits == 2
    with pytest.raises(ConfigError):
        parse_config(gas_cfg_dict(reset={"r": 1.0, "state": "sideways"}))
    with pytest.raises(ConfigError):
        parse_config(gas_cfg_dict(reset={"r": 1.0, "state": {"purity": 2.0}}))


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
    cfg["measures"]["n_max"] = 6
    path = write_cfg(tmp_path, cfg, "big.json")
    assert main(["measures", "--config", path, "--out", out, "--no-timestamp"]) == 1


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


def test_import_cli_does_not_load_scipy():
    src = str(Path(resetlb.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, resetlb.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_config_parses_and_runs_reduced(tmp_path, name):
    """Every shipped config parses; a copy cut to 2 points per sweep axis
    (n_max 3 for measures, 20 runs x 50 steps for the spin gas) runs through
    the CLI with one data row per grid point."""
    parse_config(str(CONFIGS / name))
    raw = json.loads((CONFIGS / name).read_text())
    for axis in raw.get("sweep", []):
        axis["points"] = 2
    extra = []
    if raw["model"] == "spingas":
        command = "spingas"
        raw["spingas"]["steps"] = 50
        extra = ["--runs", "20"]
    elif "measures" in raw:
        command = "measures"
        raw["measures"]["n_max"] = 3
    else:
        command = "steady"
    out = tmp_path / "out.csv"
    argv = [command, "--config", write_cfg(tmp_path, raw), "--out", str(out), "--no-timestamp", *extra]
    assert main(argv) == 0
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 1 + 2 ** len(raw.get("sweep", []))


def test_cli_verify_passes():
    assert main(["verify"]) == 0


def test_cli_seed_override_changes_header(tmp_path):
    path = write_cfg(tmp_path, gas_cfg_dict())
    out = str(tmp_path / "s.csv")
    assert main(["steady", "--config", path, "--out", out, "--no-timestamp", "--seed", "99"]) == 0
    assert "# seed: 99" in open(out).read()
