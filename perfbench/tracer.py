"""Out-of-program tracing of the resetlb layers.

:func:`install` wraps every public function of the library layers
(``config``, ``liouville``, ``qop``, ``dynamics``, ``entanglement``,
``spingas``) plus ``Superoperator.__post_init__`` and rebinds each wrapper
wherever a loaded ``resetlb`` module holds the original.  The rebinding
matters because ``cli``, ``config`` and ``liouville`` import by name: a
patch of ``resetlb.dynamics.steady_state`` alone would never see the call
that ``cli`` makes through its own ``steady_state`` binding.

Each call becomes a span (name, start, end, parent) kept in memory; the
summary turns the spans and a few argument-derived counters into the
per-layer metrics.  The CLI runs its grid on one thread when neither
``--threads`` nor ``RESETLB_THREADS`` is set, so one span stack suffices.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("config", "liouville", "qop", "dynamics", "entanglement", "spingas")
ROOT_SPAN = "cli.main"
EIG_MAX_D2 = 256  # steady_state solves D^2 <= 256 by dense eig, above by inverse iteration
POISSON = (
    "entanglement.poisson_average_negativity",
    "entanglement.poisson_reduced_negativity",
    "entanglement.negativity_of_average_reduction",
)

# per-layer metric name -> unit; the names are listed in BENCHMARK.json
UNITS = {
    "config.parse_config.s": "s",
    "config.build_liouvillian.calls": "count",
    "config.build_liouvillian.s": "s",
    "liouville.assemble.s": "s",
    "liouville.build_hamiltonian.s": "s",
    "liouville.local_noise_generator.s": "s",
    "liouville.reset_generator.calls": "count",
    "liouville.reset_generator.s": "s",
    "liouville.Superoperator.calls": "count",
    "liouville.Superoperator.s": "s",
    "liouville.Superoperator.bytes": "bytes",
    "qop.left_right_superop.calls": "count",
    "qop.left_right_superop.s": "s",
    "qop.partial_transpose.calls": "count",
    "qop.validate_density.calls": "count",
    "qop.validate_density.s": "s",
    "dynamics.steady_state.calls": "count",
    "dynamics.steady_state.s": "s",
    "dynamics.steady_state.p50_ms": "ms",
    "dynamics.steady_state.p99_ms": "ms",
    "dynamics.steady_state.errors": "count",
    "dynamics.steady_state.eig.calls": "count",
    "dynamics.steady_state.invit.calls": "count",
    "dynamics.evolve.s": "s",
    "dynamics.evolve.states": "count",
    "entanglement.negativity.calls": "count",
    "entanglement.negativity.s": "s",
    "entanglement.average_negativity.s": "s",
    "entanglement.poisson.s": "s",
    "spingas.run_ensemble.s": "s",
    "spingas.run_ensemble.run_steps_per_s": "1/s",
    "spingas.run_ensemble.alloc_peak_mb": "MB",
    "spingas.bootstrap_stderr.s": "s",
    "cli.self_s": "s",
}


class Tracer:
    """Span store plus counters derived from call arguments and results."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.nested: list[bool] = []  # inside an open span of the same name
        self.failed: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids: dict[str, int] = {}
        self._open_depth: list[int] = []
        self._stack = [-1]

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open_depth.append(0)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.nested.append(self._open_depth[nid] > 0)
        self._open_depth[nid] += 1
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open_depth[self.name_of[idx]] -= 1
        if not ok:
            self.failed.append(idx)

    def call(self, name: str, fn, args, kwargs, hook=None):
        idx = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(idx, ok=False)
            raise
        self._close(idx, ok=True)
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return traced

    # --- summary -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: call counts, inclusive seconds (a span nested in
        a span of the same name is not counted twice), percentiles and the
        root span's self time."""
        k = len(self.names)
        calls = [0] * k
        secs = [0.0] * k
        errors = [0] * k
        child_cover = [0.0] * k  # time of direct children, keyed by the parent's name
        steady = self._ids.get("dynamics.steady_state")
        steady_ms = []
        for i, nid in enumerate(self.name_of):
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            if not self.nested[i]:
                secs[nid] += dur
            if nid == steady:
                steady_ms.append(1e3 * dur)
            p = self.parent[i]
            if p >= 0:
                child_cover[self.name_of[p]] += dur
        for i in self.failed:
            errors[self.name_of[i]] += 1

        def get(table, name):
            nid = self._ids.get(name)
            return 0 if nid is None else table[nid]

        steady_ms.sort()
        ens_s = get(secs, "spingas.run_ensemble")
        ens_steps = self.counters["spingas.run_ensemble.run_steps"]
        out = {
            "config.parse_config.s": get(secs, "config.parse_config"),
            "config.build_liouvillian.calls": get(calls, "config.build_liouvillian"),
            "config.build_liouvillian.s": get(secs, "config.build_liouvillian"),
            "liouville.assemble.s": get(secs, "liouville.assemble"),
            "liouville.build_hamiltonian.s": get(secs, "liouville.build_hamiltonian"),
            "liouville.local_noise_generator.s": get(secs, "liouville.local_noise_generator"),
            "liouville.reset_generator.calls": get(calls, "liouville.reset_generator"),
            "liouville.reset_generator.s": get(secs, "liouville.reset_generator"),
            "liouville.Superoperator.calls": get(calls, "liouville.Superoperator"),
            "liouville.Superoperator.s": get(secs, "liouville.Superoperator"),
            "liouville.Superoperator.bytes": self.counters["liouville.Superoperator.bytes"],
            "qop.left_right_superop.calls": get(calls, "qop.left_right_superop"),
            "qop.left_right_superop.s": get(secs, "qop.left_right_superop"),
            "qop.partial_transpose.calls": get(calls, "qop.partial_transpose"),
            "qop.validate_density.calls": get(calls, "qop.validate_density"),
            "qop.validate_density.s": get(secs, "qop.validate_density"),
            "dynamics.steady_state.calls": get(calls, "dynamics.steady_state"),
            "dynamics.steady_state.s": get(secs, "dynamics.steady_state"),
            "dynamics.steady_state.p50_ms": _percentile(steady_ms, 50),
            "dynamics.steady_state.p99_ms": _percentile(steady_ms, 99),
            "dynamics.steady_state.errors": get(errors, "dynamics.steady_state"),
            "dynamics.steady_state.eig.calls": self.counters["dynamics.steady_state.eig.calls"],
            "dynamics.steady_state.invit.calls": self.counters["dynamics.steady_state.invit.calls"],
            "dynamics.evolve.s": get(secs, "dynamics.evolve"),
            "dynamics.evolve.states": self.counters["dynamics.evolve.states"],
            "entanglement.negativity.calls": get(calls, "entanglement.negativity"),
            "entanglement.negativity.s": get(secs, "entanglement.negativity"),
            "entanglement.average_negativity.s": get(secs, "entanglement.average_negativity"),
            "entanglement.poisson.s": sum(get(secs, n) for n in POISSON),
            "spingas.run_ensemble.s": ens_s,
            "spingas.run_ensemble.run_steps_per_s": ens_steps / ens_s if ens_s > 0 else 0.0,
            "spingas.run_ensemble.alloc_peak_mb": self.counters["spingas.run_ensemble.alloc_peak_mb"],
            "spingas.bootstrap_stderr.s": get(secs, "spingas.bootstrap_stderr"),
            "cli.self_s": get(secs, ROOT_SPAN) - get(child_cover, ROOT_SPAN),
        }
        return {name: float(value) for name, value in out.items()}

    def dump(self, path: str) -> None:
        """Write the spans as parallel columns (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name_of,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                    "failed": self.failed,
                },
                fh,
                separators=(",", ":"),
            )


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return float(sorted_values[int(rank) - 1])


# --- hooks: counters read from arguments and results -----------------------


def _steady_hook(tr: Tracer, args, kwargs, result) -> None:
    lam = args[0] if args else kwargs["lam"]
    path = "eig" if lam.matrix.shape[0] <= EIG_MAX_D2 else "invit"
    tr.counters[f"dynamics.steady_state.{path}.calls"] += 1


def _evolve_hook(tr: Tracer, args, kwargs, result) -> None:
    tr.counters["dynamics.evolve.states"] += len(result.states)


def _superop_hook(tr: Tracer, args, kwargs, result) -> None:
    n = args[0].n_qubits
    tr.counters["liouville.Superoperator.bytes"] += 16 * 16**n  # complex128, D^2 x D^2


def _traced_run_ensemble(tr: Tracer, fn):
    """run_ensemble spans; the first call runs under tracemalloc, which sees
    numpy's buffers, and is left out of the speed figures because tracing
    every allocation roughly doubles its time."""

    measured = False

    @functools.wraps(fn)
    def traced(config, n_runs, *args, **kwargs):
        nonlocal measured
        call_args = (config, n_runs) + args
        if measured:
            result = tr.call("spingas.run_ensemble", fn, call_args, kwargs)
            tr.counters["spingas.run_ensemble.run_steps"] += config.steps * n_runs
            return result
        measured = True
        tracemalloc.start()
        try:
            result = tr.call("spingas.run_ensemble.memory", fn, call_args, kwargs)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        tr.counters["spingas.run_ensemble.alloc_peak_mb"] = peak
        return result

    return traced


_HOOKS = {
    "dynamics.steady_state": _steady_hook,
    "dynamics.evolve": _evolve_hook,
}


def install() -> Tracer:
    """Wrap the layers' public functions and rebind every alias."""
    tr = Tracer()
    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"resetlb.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name == "spingas.run_ensemble":
                replaced[obj] = _traced_run_ensemble(tr, obj)
            else:
                replaced[obj] = tr.wrap(name, obj, _HOOKS.get(name))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "resetlb" and not mod_name.startswith("resetlb."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])

    from resetlb.liouville import Superoperator

    Superoperator.__post_init__ = tr.wrap(
        "liouville.Superoperator", Superoperator.__post_init__, _superop_hook
    )
    return tr
