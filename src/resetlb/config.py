"""Experiment configuration: strict JSON schema and model assembly.

Configs are JSON objects; unknown keys anywhere are hard errors so that a
misspelled physics parameter cannot silently fall back to a default.  All
rates are numbers in units of the declared unit rate (``unit``, e.g. "B"
or "gamma"); the unit name is metadata echoed into output headers.

Top-level schema::

    {
      "model": "gas" | "strongly_coupled" | "spingas",
      "unit": "gamma",                  # optional, declarative
      "n_qubits": 2,                    # gas / strongly_coupled
      "hamiltonian": {"kind": ..., "g": ..., "omega": ..., "b": ...,
                       "cx": ..., "cy": ..., "cz": ..., "cfield": ...},
      "noise": {"B": ..., "C": ..., "s": ...}          # gas
               | {"gamma": ..., "beta": ...},          # strongly_coupled
      "reset": {"r": ..., "state": "plus" | "minus" | "zero" | "one"
                          | {"purity": p, "ket": "plus"}
                          | {"bloch": [b1, b2, b3]}},
      "initial_state": {"type": "product"}             # evolve only
                       | {"type": "weighted_graph", "phi": x}
                       | {"type": "matrix", "re": [[...]], "im": [[...]]},
      "spingas": {"lattice": [6, 6], "n_env": 8, "psi": 0.1, "phi": 0.001,
                   "exchange_prob": 0.0, "steps": 500},
      "measures": {"lam": 2.0, "n_min": 0, "n_max": 5},
      "sweep": [{"param": "reset.r", "min": 0, "max": 10,
                  "points": 21, "scale": "linear"}],
      "output": "out.csv",
      "seed": 1
    }

Sweep parameters are dotted paths into the sections above, e.g.
``reset.r``, ``hamiltonian.g``, ``noise.s``, ``spingas.exchange_prob``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from resetlb import qop
from resetlb.liouville import (
    GasNoiseParams,
    HamiltonianSpec,
    ResetSpec,
    Superoperator,
    ThermalBathParams,
    assemble,
    build_hamiltonian,
    local_noise_generator,
    reset_generator,
    thermal_generator,
)
from resetlb.spingas import GasConfig


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


_MODELS = ("gas", "strongly_coupled", "spingas")
_TOP_KEYS = {
    "model", "unit", "n_qubits", "hamiltonian", "noise", "reset",
    "initial_state", "spingas", "measures", "sweep", "output", "seed",
}
_HAM_KEYS = {"kind", "g", "omega", "b", "cx", "cy", "cz", "cfield", "matrix"}
_GAS_NOISE_KEYS = {"B", "C", "s"}
_THERMAL_KEYS = {"gamma", "beta"}
_RESET_KEYS = {"r", "state", "states"}
_SPINGAS_KEYS = {"lattice", "n_env", "psi", "phi", "exchange_prob", "steps"}
_MEASURE_KEYS = {"lam", "n_min", "n_max"}
_SWEEP_KEYS = {"param", "min", "max", "points", "scale"}
_INITIAL_KEYS = {"type", "phi", "ket", "re", "im"}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


@dataclass(frozen=True)
class SweepAxis:
    param: str
    lo: float
    hi: float
    points: int
    scale: str = "linear"

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.lo])
        if self.scale == "log":
            if self.lo <= 0:
                raise ConfigError("log-scale sweep needs positive bounds")
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (sections stored as plain dicts)."""

    model: str
    unit: str = ""
    n_qubits: int = 2
    hamiltonian: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)
    reset: dict = field(default_factory=dict)
    initial_state: dict = field(default_factory=dict)
    spingas: dict = field(default_factory=dict)
    measures: dict = field(default_factory=dict)
    sweep: tuple[SweepAxis, ...] = ()
    output: str | None = None
    seed: int = 0

    def canonical_json(self) -> str:
        """Stable single-line rendering for output headers."""
        body = {
            "model": self.model,
            "unit": self.unit,
            "n_qubits": self.n_qubits,
            "hamiltonian": self.hamiltonian,
            "noise": self.noise,
            "reset": self.reset,
            "initial_state": self.initial_state,
            "spingas": self.spingas,
            "measures": self.measures,
            "sweep": [
                {"param": a.param, "min": a.lo, "max": a.hi, "points": a.points, "scale": a.scale}
                for a in self.sweep
            ],
            "seed": self.seed,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    def with_overrides(self, overrides: dict[str, float]) -> "ExperimentConfig":
        """New config with dotted-path parameters replaced."""
        sections = {
            "hamiltonian": dict(self.hamiltonian),
            "noise": dict(self.noise),
            "reset": dict(self.reset),
            "spingas": dict(self.spingas),
            "measures": dict(self.measures),
        }
        for path, value in overrides.items():
            section, _, key = path.partition(".")
            if section not in sections or not key:
                raise ConfigError(f"unknown sweep parameter {path!r}")
            if key not in sections[section]:
                raise ConfigError(f"sweep parameter {path!r} not present in config")
            sections[section][key] = value
        return replace(self, **sections)


def parse_config(data) -> ExperimentConfig:
    """Validate a dict (or JSON file path / string) into ExperimentConfig."""
    if isinstance(data, str):
        with open(data, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    _check_keys(data, _TOP_KEYS, "top level")
    model = data.get("model")
    if model not in _MODELS:
        raise ConfigError(f"model must be one of {_MODELS}, got {model!r}")

    ham = dict(data.get("hamiltonian", {}))
    _check_keys(ham, _HAM_KEYS, "hamiltonian")
    noise = dict(data.get("noise", {}))
    if model == "gas" and noise:
        _check_keys(noise, _GAS_NOISE_KEYS, "noise (gas model)")
    if model == "strongly_coupled" and noise:
        _check_keys(noise, _THERMAL_KEYS, "noise (strongly coupled model)")
    reset = dict(data.get("reset", {}))
    _check_keys(reset, _RESET_KEYS, "reset")
    init = dict(data.get("initial_state", {}))
    _check_keys(init, _INITIAL_KEYS, "initial_state")
    sgas = dict(data.get("spingas", {}))
    _check_keys(sgas, _SPINGAS_KEYS, "spingas")
    meas = dict(data.get("measures", {}))
    _check_keys(meas, _MEASURE_KEYS, "measures")

    axes = []
    for raw in data.get("sweep", []):
        _check_keys(raw, _SWEEP_KEYS, "sweep axis")
        try:
            axis = SweepAxis(
                param=raw["param"],
                lo=float(raw["min"]),
                hi=float(raw["max"]),
                points=int(raw["points"]),
                scale=raw.get("scale", "linear"),
            )
        except KeyError as exc:
            raise ConfigError(f"sweep axis missing key {exc}") from None
        if axis.points < 1:
            raise ConfigError("sweep axis needs points >= 1")
        if axis.scale not in ("linear", "log"):
            raise ConfigError(f"unknown sweep scale {axis.scale!r}")
        axes.append(axis)
    if len(axes) > 2:
        raise ConfigError("at most two sweep axes are supported")

    n_qubits = int(data.get("n_qubits", 2))
    if model != "spingas" and not 1 <= n_qubits <= 6:
        raise ConfigError("n_qubits must be between 1 and 6")

    cfg = ExperimentConfig(
        model=model,
        unit=str(data.get("unit", "")),
        n_qubits=n_qubits,
        hamiltonian=ham,
        noise=noise,
        reset=reset,
        initial_state=init,
        spingas=sgas,
        measures=meas,
        sweep=tuple(axes),
        output=data.get("output"),
        seed=int(data.get("seed", 0)),
    )
    # surface obviously broken physics sections at parse time
    if model in ("gas", "strongly_coupled"):
        build_liouvillian(cfg)
    else:
        gas_config(cfg)
    return cfg


def reset_spec_from_config(reset: dict, n: int) -> ResetSpec | None:
    """ResetSpec from the config section; None when no reset is configured."""
    if not reset:
        return None
    r = float(reset.get("r", 0.0))
    if "states" in reset:
        states = [_reset_state(s) for s in reset["states"]]
        if len(states) != n:
            raise ConfigError(f"expected {n} reset states, got {len(states)}")
        return ResetSpec(r, tuple(states))
    state = _reset_state(reset.get("state", "plus"))
    return ResetSpec.uniform(r, n, state)


def _reset_state(spec) -> np.ndarray:
    kets = {"plus": "+", "minus": "-", "zero": "0", "one": "1"}
    if isinstance(spec, str):
        if spec not in kets:
            raise ConfigError(f"unknown reset state {spec!r}")
        return qop.projector(qop.ket(kets[spec]))
    if isinstance(spec, dict):
        _check_keys(spec, {"purity", "ket", "bloch"}, "reset state")
        if "bloch" in spec:
            b1, b2, b3 = (float(x) for x in spec["bloch"])
            from resetlb.liouville import state_from_bloch

            return state_from_bloch(b1, b2, b3)
        p = float(spec.get("purity", 1.0))
        ket_name = spec.get("ket", "plus")
        if ket_name not in kets:
            raise ConfigError(f"unknown reset ket {ket_name!r}")
        if not 0 <= p <= 1:
            raise ConfigError("reset purity must lie in [0, 1]")
        pure = qop.projector(qop.ket(kets[ket_name]))
        return p * pure + (1 - p) * np.eye(2) / 2
    raise ConfigError(f"cannot interpret reset state {spec!r}")


def hamiltonian_from_config(ham: dict, n: int) -> np.ndarray:
    if not ham:
        raise ConfigError("hamiltonian section is required for this model")
    kind = ham.get("kind")
    if kind is None:
        raise ConfigError("hamiltonian.kind is required")
    spec = HamiltonianSpec(
        kind=kind,
        g=float(ham.get("g", 0.0)),
        omega=float(ham.get("omega", 0.0)),
        b=float(ham.get("b", 0.0)),
        cx=float(ham.get("cx", 0.7)),
        cy=float(ham.get("cy", 0.3)),
        cz=float(ham.get("cz", 1.0)),
        cfield=float(ham.get("cfield", 0.5)),
        matrix=np.array(ham["matrix"], dtype=complex) if "matrix" in ham else None,
    )
    try:
        return build_hamiltonian(spec, n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_liouvillian(
    cfg: ExperimentConfig, n: int | None = None, merge_degenerate: bool = False
) -> Superoperator:
    """Assemble the model Liouvillian for gas / strongly_coupled configs.

    ``merge_degenerate`` is passed on to :func:`thermal_generator`.
    """
    if cfg.model not in ("gas", "strongly_coupled"):
        raise ConfigError(f"model {cfg.model!r} has no Liouvillian")
    n = cfg.n_qubits if n is None else n
    try:
        h = hamiltonian_from_config(cfg.hamiltonian, n)
        gens = []
        if cfg.model == "gas":
            if cfg.noise:
                params = GasNoiseParams(
                    B=float(cfg.noise.get("B", 0.0)),
                    C=float(cfg.noise.get("C", 0.0)),
                    s=float(cfg.noise.get("s", 0.5)),
                )
                gens.append(local_noise_generator(n, params))
        else:
            if not cfg.noise:
                raise ConfigError("strongly_coupled model requires a noise section")
            params = ThermalBathParams(
                gamma=float(cfg.noise.get("gamma", 0.0)),
                beta=float(cfg.noise.get("beta", 1.0)),
            )
            gens.append(thermal_generator(h, params, merge_degenerate=merge_degenerate))
        spec = reset_spec_from_config(cfg.reset, n)
        if spec is not None and spec.r > 0:
            gens.append(reset_generator(n, spec))
        return assemble(h, gens, n=n)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def initial_state_from_config(cfg: ExperimentConfig) -> qop.DensityMatrix:
    """Initial state for time evolution; defaults to the |+...+> product."""
    init = cfg.initial_state
    n = cfg.n_qubits
    kind = init.get("type", "product")
    if kind == "product":
        vec = qop.ket("+" * n)
        return qop.validate_density(qop.projector(vec))
    if kind == "weighted_graph":
        if n != 2:
            raise ConfigError("weighted_graph initial state is defined for n_qubits = 2")
        phi = float(init.get("phi", 0.0))
        u = np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])
        vec = u @ qop.ket("++")
        return qop.validate_density(qop.projector(vec))
    if kind == "matrix":
        re = np.array(init.get("re"), dtype=float)
        im = np.array(init.get("im", np.zeros_like(re)), dtype=float)
        try:
            return qop.validate_density(re + 1j * im)
        except qop.DensityMatrixError as exc:
            raise ConfigError(f"initial_state.matrix is not a density matrix: {exc}") from exc
    raise ConfigError(f"unknown initial state type {kind!r}")


def gas_config(cfg: ExperimentConfig) -> GasConfig:
    """GasConfig for the spingas model."""
    if cfg.model != "spingas":
        raise ConfigError("spingas section is only valid for the spingas model")
    s = cfg.spingas
    if not s:
        raise ConfigError("spingas model requires a spingas section")
    try:
        lattice = tuple(int(x) for x in s.get("lattice", (6, 6)))
        if len(lattice) != 2:
            raise ConfigError("lattice must be [rows, cols]")
        return GasConfig(
            lattice=lattice,  # type: ignore[arg-type]
            n_env=int(s.get("n_env", 8)),
            psi=float(s.get("psi", 0.1)),
            phi=float(s.get("phi", 0.001)),
            exchange_prob=float(s.get("exchange_prob", 0.0)),
            steps=int(s.get("steps", 500)),
            seed=cfg.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
