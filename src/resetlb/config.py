"""Experiment configuration: strict JSON schema and model assembly.

Configs are JSON objects; unknown keys anywhere are hard errors so that a
misspelled physics parameter cannot silently fall back to a default; so
are sections the model never reads (``spingas`` in a gas or
strongly_coupled config, the other sections in a spingas config).  All
rates are numbers in units of the declared unit rate (``unit``, e.g. "B"
or "gamma"); the unit name is metadata echoed into output headers.  Real
values must be finite JSON numbers; a boolean or a string such as "2.0" is
an error, never converted.  Counts
(``n_qubits``, ``seed``, sweep ``points``, the spingas lattice, ``n_env``
and ``steps``, measures ``n_min`` and ``n_max``) must be integral numbers;
a fraction or a boolean is an error, never truncated.  ``n_qubits`` and
measures ``n_max`` stop at ``MAX_DENSE_QUBITS``, and an ``initial_state``
must be a density matrix on ``n_qubits`` qubits.

Top-level schema::

    {
      "model": "gas" | "strongly_coupled" | "spingas",
      "unit": "gamma",                  # optional, declarative
      "n_qubits": 2,                    # gas / strongly_coupled
      "hamiltonian": {"kind": "ising", "g": ..., "omega": ...},
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

A ``hamiltonian`` takes ``kind`` and the parameters ``HamiltonianSpec.KINDS``
lists for it, an ``initial_state`` exactly the keys shown for its ``type``;
a ``reset`` takes ``state`` or ``states``, not both, and a ``bloch`` reset
state takes no ``purity`` or ``ket``.

Sweep parameters are dotted paths of any depth into the sections above,
e.g. ``reset.r``, ``hamiltonian.g``, ``noise.s``, ``spingas.exchange_prob``,
``reset.state.purity`` or ``initial_state.phi``; the key must be present
in the config when it is parsed, which checks the config's own values, not
each grid point's: the CLI reports a point its section refuses (``noise.s``
past 1, a negative ``measures`` rate) as a config error naming the point.
``steady``, ``evolve`` and ``spingas`` run once per grid point
(``measures`` sweeps ``reset.r`` only, ``spectrum`` takes no sweep), so a
swept ``evolve`` writes one block of time rows per point::

    "initial_state": {"type": "weighted_graph", "phi": 0.0},
    "sweep": [{"param": "initial_state.phi", "min": 0, "max": 3.141592653589793,
               "points": 9}]
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from resetlb import qop
from resetlb.entanglement import PoissonWeighting
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
    state_from_bloch,
    thermal_generator,
)
from resetlb.spingas import GasConfig


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


MAX_DENSE_QUBITS = 6  # one D^2 x D^2 real generator is 134 MB at n = 6

_MODELS = ("gas", "strongly_coupled", "spingas")
_LINDBLAD_SECTIONS = {"hamiltonian", "noise", "reset", "initial_state", "measures"}
_COMMON_KEYS = {"model", "unit", "n_qubits", "sweep", "output", "seed"}
_TOP_KEYS = {  # per model: a section the model never reads is an unknown key
    "gas": _COMMON_KEYS | _LINDBLAD_SECTIONS,
    "strongly_coupled": _COMMON_KEYS | _LINDBLAD_SECTIONS,
    "spingas": _COMMON_KEYS | {"spingas"},
}
_RESET_KEYS = {"r", "state", "states"}
# the keys of each flat section and the value an absent key reads as; a float
# default marks a real number, an int default a count
_DEFAULTS = {
    "noise (gas model)": {"B": 0.0, "C": 0.0, "s": 0.5},
    "noise (strongly coupled model)": {"gamma": 0.0, "beta": 1.0},
    "spingas": {"lattice": (6, 6), "n_env": 8, "psi": 0.1, "phi": 0.001, "exchange_prob": 0.0, "steps": 500},
    "measures": {"lam": 2.0, "n_min": 0, "n_max": 5},
}
_SWEEP_KEYS = {"param", "min", "max", "points", "scale"}
_INITIAL_KEYS = {
    "product": {"type"},
    "weighted_graph": {"type", "phi"},
    "matrix": {"type", "re", "im"},
}
_SWEPT_SECTIONS = _LINDBLAD_SECTIONS | {"spingas"}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _integer(value, where: str) -> int:
    """``value`` as an int when it is an integral number (2 or 2.0); a
    boolean, a fraction or a non-number is refused rather than truncated."""
    integral = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _finite(value, where: str) -> float:
    """``value`` as a float when it is a finite real number; a boolean, a
    string or any other type is refused rather than converted."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond float range
            if math.isfinite(number := float(value)):
                return number
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _matrix(rows, where: str) -> np.ndarray:
    """``rows`` as a float array when it is a list of equal-length lists, every entry through :func:`_finite`."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)) or len(set(map(len, rows))) > 1:
        raise ConfigError(f"{where} must be a list of equal-length lists of numbers")
    return np.array([[_finite(v, where) for v in row] for row in rows], ndmin=2)


def _read_section(section: dict, where: str) -> dict:
    """The flat section ``where`` over its :data:`_DEFAULTS`: an unlisted key is
    refused, a real goes through :func:`_finite` and a count through :func:`_integer`."""
    defaults = _DEFAULTS[where]
    _check_keys(section, set(defaults), where)
    name = where.partition(" ")[0]  # "noise (gas model)" -> "noise"
    read = {**defaults, **section}
    for key, default in defaults.items():
        if check := {float: _finite, int: _integer}.get(type(default)):
            read[key] = check(read[key], f"{name}.{key}")
    return read


@dataclass(frozen=True)
class SweepAxis:
    param: str
    lo: float
    hi: float
    points: int
    scale: str = "linear"

    def values(self) -> np.ndarray:
        if self.scale == "log" and min(self.lo, self.hi) <= 0:
            raise ConfigError("log-scale sweep needs positive bounds")
        if self.points == 1:
            return np.array([self.lo])
        if self.scale == "log":
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
        body = {name: getattr(self, name) for name in ("model", "unit", "n_qubits", "seed", *_SWEPT_SECTIONS)}
        body["sweep"] = [
            {"param": a.param, "min": a.lo, "max": a.hi, "points": a.points, "scale": a.scale} for a in self.sweep
        ]
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    def with_overrides(self, overrides: dict[str, float]) -> "ExperimentConfig":
        """New config with dotted-path parameters (of any depth) replaced.

        Every dict on a path is copied, so ``self`` is never mutated.
        """
        sections: dict[str, dict] = {}
        for path, value in overrides.items():
            head, *keys = path.split(".")
            if head not in _SWEPT_SECTIONS or not keys:
                raise ConfigError(f"unknown sweep parameter {path!r}")
            node = sections.setdefault(head, dict(getattr(self, head)))
            for key in keys[:-1]:
                if not isinstance(node.get(key), dict):
                    raise ConfigError(f"sweep parameter {path!r} not present in config")
                node[key] = dict(node[key])
                node = node[key]
            if keys[-1] not in node:
                raise ConfigError(f"sweep parameter {path!r} not present in config")
            node[keys[-1]] = value
        return replace(self, **sections)


def parse_config(data) -> ExperimentConfig:
    """Validate a dict (or JSON file path / string) into ExperimentConfig."""
    if isinstance(data, str):
        with open(data, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    model = data.get("model")
    if model not in _MODELS:
        raise ConfigError(f"model must be one of {_MODELS}, got {model!r}")
    _check_keys(data, _TOP_KEYS[model], f"top level of a {model} config")
    for name in _SWEPT_SECTIONS & set(data):
        if not isinstance(data[name], dict):
            raise ConfigError(f"{name} must be a JSON object")

    sections = {name: dict(data.get(name, {})) for name in _SWEPT_SECTIONS}
    _check_keys(sections["reset"], _RESET_KEYS, "reset")
    init = sections["initial_state"]
    init_kind = init.get("type", "product")
    if init_kind not in _INITIAL_KEYS:
        raise ConfigError(f"unknown initial state type {init_kind!r}")
    _check_keys(init, _INITIAL_KEYS[init_kind], f"initial_state ({init_kind})")

    axes = []
    for raw in data.get("sweep", []):
        if not isinstance(raw, dict):
            raise ConfigError("each sweep axis must be a JSON object")
        _check_keys(raw, _SWEEP_KEYS, "sweep axis")
        try:
            axis = SweepAxis(
                param=raw["param"],
                lo=_finite(raw["min"], "sweep axis min"),
                hi=_finite(raw["max"], "sweep axis max"),
                points=_integer(raw["points"], "sweep axis points"),
                scale=raw.get("scale", "linear"),
            )
        except KeyError as exc:
            raise ConfigError(f"sweep axis missing key {exc}") from None
        if not isinstance(axis.param, str):
            raise ConfigError(f"sweep axis param must be a dotted path, got {axis.param!r}")
        if axis.points < 1:
            raise ConfigError("sweep axis needs points >= 1")
        if axis.scale not in ("linear", "log"):
            raise ConfigError(f"unknown sweep scale {axis.scale!r}")
        axis.values()
        axes.append(axis)
    if len(axes) > 2:
        raise ConfigError("at most two sweep axes are supported")

    n_qubits = _integer(data.get("n_qubits", 2), "n_qubits")
    seed = _integer(data.get("seed", 0), "seed")
    if model != "spingas" and not 1 <= n_qubits <= MAX_DENSE_QUBITS:
        raise ConfigError(f"n_qubits must be between 1 and {MAX_DENSE_QUBITS}")

    cfg = ExperimentConfig(
        model=model,
        unit=str(data.get("unit", "")),
        n_qubits=n_qubits,
        **sections,
        sweep=tuple(axes),
        output=data.get("output"),
        seed=seed,
    )
    # surface misspelled sweep paths and broken physics sections at parse time
    for axis in axes:
        cfg.with_overrides({axis.param: axis.lo})
    if model in ("gas", "strongly_coupled"):
        build_liouvillian(cfg)
        if init:
            initial_state_from_config(cfg)
        if cfg.measures:
            measures_weighting(cfg)
    else:
        gas_config(cfg)
    return cfg


def reset_spec_from_config(reset: dict, n: int) -> ResetSpec | None:
    """ResetSpec from the config section; None when no reset is configured."""
    if not reset:
        return None
    r = _finite(reset.get("r", 0.0), "reset.r")
    if "state" in reset and "states" in reset:
        raise ConfigError("reset takes state or states, not both")
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
            if len(spec) > 1:
                raise ConfigError("reset state takes bloch alone, without purity or ket")
            b1, b2, b3 = (_finite(x, "reset.state.bloch") for x in spec["bloch"])
            return state_from_bloch(b1, b2, b3)
        p = _finite(spec.get("purity", 1.0), "reset.state.purity")
        ket_name = spec.get("ket", "plus")
        if ket_name not in kets:
            raise ConfigError(f"unknown reset ket {ket_name!r}")
        if not 0 <= p <= 1:
            raise ConfigError("reset purity must lie in [0, 1]")
        pure = qop.projector(qop.ket(kets[ket_name]))
        return p * pure + (1 - p) * np.eye(2) / 2
    raise ConfigError(f"cannot interpret reset state {spec!r}")


def hamiltonian_from_config(ham: dict, n: int) -> np.ndarray:
    """Hamiltonian of the section; keys per kind and defaults come from HamiltonianSpec."""
    if not ham:
        raise ConfigError("hamiltonian section is required for this model")
    kind = ham.get("kind")
    if kind not in HamiltonianSpec.KINDS:
        raise ConfigError(f"hamiltonian.kind must be one of {sorted(HamiltonianSpec.KINDS)}, got {kind!r}")
    _check_keys(ham, {"kind", *HamiltonianSpec.KINDS[kind]}, f"hamiltonian ({kind})")
    try:
        if kind == "custom":
            matrix = _matrix(ham["matrix"], "hamiltonian.matrix") if "matrix" in ham else None
            spec = HamiltonianSpec(kind, matrix=matrix)
        else:
            params = {key: _finite(v, f"hamiltonian.{key}") for key, v in ham.items() if key != "kind"}
            spec = HamiltonianSpec(kind, **params)
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
                params = GasNoiseParams(**_read_section(cfg.noise, "noise (gas model)"))
                gens.append(local_noise_generator(n, params))
        else:
            if not cfg.noise:
                raise ConfigError("strongly_coupled model requires a noise section")
            params = ThermalBathParams(**_read_section(cfg.noise, "noise (strongly coupled model)"))
            gens.append(thermal_generator(h, params, merge_degenerate=merge_degenerate))
        spec = reset_spec_from_config(cfg.reset, n)
        if spec is not None and spec.r > 0:
            gens.append(reset_generator(n, spec))
        return assemble(h, gens, n=n)
    except (TypeError, ValueError) as exc:  # a ConfigError keeps its message
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
        phi = _finite(init.get("phi", 0.0), "initial_state.phi")
        u = np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])
        vec = u @ qop.ket("++")
        return qop.validate_density(qop.projector(vec))
    if kind == "matrix":
        re = _matrix(init.get("re"), "initial_state.re")
        im = _matrix(init["im"], "initial_state.im") if "im" in init else np.zeros_like(re)
        try:
            if re.shape != (2**n, 2**n) or im.shape != re.shape:
                raise ValueError(f"need {2**n} x {2**n} for n_qubits = {n}, got {re.shape} and {im.shape}")
            return qop.validate_density(re + 1j * im)
        except (TypeError, ValueError) as exc:  # DensityMatrixError included
            raise ConfigError(f"initial_state.matrix is not a density matrix: {exc}") from exc
    raise ConfigError(f"unknown initial state type {kind!r}")


def gas_config(cfg: ExperimentConfig) -> GasConfig:
    """GasConfig for the spingas model."""
    if cfg.model != "spingas":
        raise ConfigError("spingas section is only valid for the spingas model")
    if not cfg.spingas:
        raise ConfigError("spingas model requires a spingas section")
    s = _read_section(cfg.spingas, "spingas")
    try:
        lattice = tuple(_integer(x, "spingas.lattice") for x in s.pop("lattice"))
        if len(lattice) != 2:
            raise ConfigError("lattice must be [rows, cols]")
        return GasConfig(lattice=lattice, seed=cfg.seed, **s)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def measures_weighting(cfg: ExperimentConfig) -> PoissonWeighting:
    """Poisson weighting over the particle numbers of the ``measures`` section."""
    if not cfg.measures:
        raise ConfigError("measures command requires a measures section")
    read = _read_section(cfg.measures, "measures")
    if not 2 <= read["n_max"] <= MAX_DENSE_QUBITS:  # measures need pairs; the dense limit
        raise ConfigError(f"measures.n_max must be between 2 and {MAX_DENSE_QUBITS}, got {read['n_max']}")
    try:
        return PoissonWeighting(**read)
    except ValueError as exc:  # lam <= 0 or not 0 <= n_min <= n_max
        raise ConfigError(f"measures: {exc}") from exc
