"""Command-line front end emitting CSV datasets.

Subcommands: ``steady``, ``evolve``, ``spectrum``, ``spingas``,
``measures``, ``verify``.  All data commands read a JSON experiment
config (see :mod:`resetlb.config`) and write CSV with a comment header
carrying the fully resolved config and seed, so identical inputs yield
byte-identical files at a fixed BLAS thread count (apart from the
timestamp line, which ``--no-timestamp`` suppresses); only the
``measures_thermal`` CSV, whose steady states at n >= 4 are LAPACK LUs,
differs in its last bits between 1 and 2 OpenBLAS threads.

Exit codes: 0 success, 1 configuration error, 2 solver error, 3 verify
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from resetlb import qop
from resetlb.config import (
    ConfigError,
    ExperimentConfig,
    build_liouvillian,
    gas_config,
    initial_state_from_config,
    measures_weighting,
    parse_config,
    reset_spec_from_config,
)
from resetlb.dynamics import SteadyStateError, evolve, spectrum, steady_state
from resetlb.entanglement import (
    average_negativity,
    negativity_of_average_reduction,
    poisson_average_negativity,
    poisson_reduced_negativity,
)
from resetlb.liouville import affine_family, reset_generator
from resetlb.spingas import bootstrap_stderr, run_ensembles


class SolverError(RuntimeError):
    """Numerical solve failed; carries grid coordinates when available."""


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path, cfg: ExperimentConfig, command: str, columns, rows, no_timestamp: bool):
    lines = [f"# resetlb {command} dataset"]
    if not no_timestamp:
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"# timestamp: {stamp}")
    lines.append(f"# config: {cfg.canonical_json()}")
    lines.append(f"# seed: {cfg.seed}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _sweep_points(cfg: ExperimentConfig):
    """Override dict of every grid point, the last axis varying fastest,
    and the swept parameters."""
    params = [axis.param for axis in cfg.sweep]
    grid = itertools.product(*(axis.values() for axis in cfg.sweep))
    return [dict(zip(params, values)) for values in grid], params


@contextlib.contextmanager
def _at_point(overrides: dict):
    """Re-raise a ValueError (a ConfigError or a ResetSpec rule) naming the grid point."""
    try:
        yield
    except ValueError as exc:
        point = ", ".join(f"{param}={value}" for param, value in overrides.items())
        raise ConfigError(f"{exc} at {point}") from exc


def cmd_steady(cfg: ExperimentConfig, args) -> int:
    points, params = _sweep_points(cfg)

    states = []
    for overrides in points:
        with _at_point(overrides):
            lam = build_liouvillian(cfg.with_overrides(overrides))
        try:
            states.append(steady_state(lam))
        except (SteadyStateError, qop.DensityMatrixError) as exc:
            raise SolverError(f"steady-state solve failed at {overrides}: {exc}") from exc
    columns = params + ["negativity"]
    negs = average_negativity(np.stack([state.matrix for state in states])).average
    rows = [[overrides[p] for p in params] + [neg] for overrides, neg in zip(points, negs)]
    _write_csv(args.out, cfg, "steady", columns, rows, args.no_timestamp)
    if args.dump_states:
        dump = [
            {
                "params": overrides,
                "re": np.real(state.matrix).tolist(),
                "im": np.imag(state.matrix).tolist(),
            }
            for overrides, state in zip(points, states)
        ]
        with open(args.out + ".states.json", "w", encoding="utf-8") as fh:
            json.dump(dump, fh, indent=1, sort_keys=True)
    return 0


def cmd_evolve(cfg: ExperimentConfig, args) -> int:
    if not (np.isfinite(args.t_max) and args.t_max >= 0) or args.points < 1:
        raise ConfigError(f"evolve needs a finite --t-max >= 0 and --points >= 1, got {args.t_max}, {args.points}")
    points, params = _sweep_points(cfg)
    times = np.linspace(0.0, args.t_max, args.points)

    # points that differ only in the initial state share their generator,
    # which is built once for all of them
    groups: dict[tuple, list[int]] = {}
    for i, overrides in enumerate(points):
        key = tuple((p, v) for p, v in overrides.items() if not p.startswith("initial_state."))
        groups.setdefault(key, []).append(i)
    point_rows = [None] * len(points)
    for members in groups.values():
        lam = None
        for i in members:
            overrides = points[i]
            with _at_point(overrides):
                point = cfg.with_overrides(overrides)
                if lam is None:
                    lam = build_liouvillian(point)
                rho0 = initial_state_from_config(point)
            try:
                result = evolve(lam, rho0, times)
            except (qop.DensityMatrixError, ValueError) as exc:
                raise SolverError(f"evolution failed at {overrides}: {exc}") from exc
            mats = np.stack([state.matrix for state in result.states])
            negs = average_negativity(mats).average
            traces = np.trace(mats, axis1=-2, axis2=-1).real
            swept = [overrides[p] for p in params]
            point_rows[i] = [swept + list(row) for row in zip(times, negs, traces, result.min_eigenvalues)]
    rows = [row for block in point_rows for row in block]
    columns = params + ["t", "negativity", "trace", "min_eigenvalue"]
    _write_csv(args.out, cfg, "evolve", columns, rows, args.no_timestamp)
    return 0


def cmd_spectrum(cfg: ExperimentConfig, args) -> int:
    if cfg.sweep:
        raise ConfigError("spectrum takes no sweep")
    lam = build_liouvillian(cfg)
    report = spectrum(lam)
    rows = [[ev.real, ev.imag, mult] for ev, mult in zip(report.eigenvalues, report.multiplicities)]
    _write_csv(
        args.out, cfg, "spectrum", ["real", "imag", "multiplicity"], rows, args.no_timestamp
    )
    return 0


def cmd_spingas(cfg: ExperimentConfig, args) -> int:
    if args.runs < 1:
        raise ConfigError(f"spingas needs --runs >= 1, got {args.runs}")
    points, params = _sweep_points(cfg)

    # every point is validated before any work; points that share their
    # trajectories run in one kinematic pass
    configs = [gas_config(cfg.with_overrides(overrides)) for overrides in points]
    rows = []
    for overrides, res in zip(points, run_ensembles(configs, args.runs)):
        stderr = bootstrap_stderr(res.per_run, n_boot=200, seed=cfg.seed)
        rows.append([overrides[p] for p in params] + [res.negativity, stderr])
    columns = params + ["negativity", "stderr"]
    _write_csv(args.out, cfg, "spingas", columns, rows, args.no_timestamp)
    return 0


def cmd_measures(cfg: ExperimentConfig, args) -> int:
    w_full = measures_weighting(cfg)
    w_red = w_full.restricted(2)
    n_range = range(max(2, w_full.n_min), w_full.n_max + 1)
    points, params = _sweep_points(cfg)
    if params != ["reset.r"]:
        raise ConfigError("measures expects exactly one sweep axis over reset.r")
    for overrides in points:  # a rate the reset section refuses, before any solve
        with _at_point(overrides):
            reset_spec_from_config(cfg.with_overrides(overrides).reset, cfg.n_qubits)

    # every generator is affine in r: build the r-free part and the unit-rate
    # reset once per n, on one pattern.  Gradient fields lift degeneracies only
    # at second order for n > 2, so the multipartite scans need the
    # quasi-degenerate grouping.
    no_reset = replace(cfg, reset={})
    families = {
        n: affine_family(
            build_liouvillian(no_reset, n, merge_degenerate=True),
            reset_generator(n, reset_spec_from_config({**cfg.reset, "r": 1.0}, n)),
        )
        for n in n_range
    }
    rows = []
    for overrides in points:
        r = overrides["reset.r"]
        states = {}
        for n, at_rate in families.items():
            try:
                states[n] = steady_state(at_rate(r))
            except SteadyStateError as exc:
                raise SolverError(f"steady-state solve failed at r={r}, n={n}: {exc}") from exc
        rows.append(
            [
                r,
                poisson_average_negativity(states, w_full),
                poisson_reduced_negativity(states, w_red),
                negativity_of_average_reduction(states, w_red),
            ]
        )
    _write_csv(
        args.out, cfg, "measures", ["r", "measure_i", "measure_ii", "measure_iii"], rows, args.no_timestamp
    )
    return 0


def cmd_verify(args) -> int:
    from resetlb.verify import run_checks

    checks = run_checks()
    for check in checks:
        print(check.line())
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    if failed:
        for c in failed:
            print(f"failed: {c.name} [{c.target}] max deviation {c.max_dev:.3e}", file=sys.stderr)
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resetlb",
        description="Steady states, dynamics and entanglement of dissipative qubit systems with reset",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, dump=False):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output CSV path (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp header line")
        if dump:
            p.add_argument("--dump-states", action="store_true", help="dump state matrices as JSON")

    p_steady = sub.add_parser("steady", help="steady-state negativity over a sweep grid")
    add_common(p_steady, dump=True)

    p_evolve = sub.add_parser("evolve", help="time evolution of negativity, trace, min eigenvalue")
    add_common(p_evolve)
    p_evolve.add_argument("--t-max", type=float, required=True, help="final time")
    p_evolve.add_argument("--points", type=int, default=101, help="time grid points")

    p_spec = sub.add_parser("spectrum", help="Liouvillian spectrum with multiplicities")
    add_common(p_spec)

    p_gas = sub.add_parser("spingas", help="Monte Carlo spin-gas ensemble sweep")
    add_common(p_gas)
    p_gas.add_argument("--runs", type=int, default=1000, help="ensemble size")

    p_meas = sub.add_parser("measures", help="Poisson-weighted multipartite measures vs reset rate")
    add_common(p_meas)

    sub.add_parser("verify", help="run the closed-form vs numerical cross-check suite")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    if args.command == "verify":
        return cmd_verify(args)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        args.out = args.out or cfg.output
        if not args.out:
            raise ConfigError("no output path: set --out or config.output")
        handler = {
            "steady": cmd_steady,
            "evolve": cmd_evolve,
            "spectrum": cmd_spectrum,
            "spingas": cmd_spingas,
            "measures": cmd_measures,
        }[args.command]
        return handler(cfg, args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, SteadyStateError, qop.DensityMatrixError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
