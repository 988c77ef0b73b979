"""Per-layer tracing of rankmetric from outside the package.

`Tracer.install()` replaces every public function and method of each
`rankmetric` module with a wrapper defined here; `Tracer.uninstall()`
puts the originals back.  A function imported into another module
(`from .errors import charge`) is replaced in every namespace that holds
it, so calls are seen whichever module makes them.  Nothing under `src/`
is edited.

Each wrapper aggregates in memory, per (function, calling layer): the
number of calls, the self time (see `Tracer`), and for generators the
number of items yielded.
No span is stored per call: the field layer alone is called tens of
millions of times per op.  The layer of a module is its last dotted name
component (`rankmetric.linalg` -> `linalg`); code outside every wrapper
is the `bench` layer.

A few functions also carry a hook that keeps a scoped counter, for the
metrics that need context: subspaces swept inside `density_bruteforce`,
solves made inside an equivalence or automorphism scan, and so on.  See
`Tracer.layer_metrics` for the definitions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter

MARK = "__bench_trace_wrapper__"

# Verify suites timed one by one through cli.SUITES.
SUITES = ("hejar", "mrd192", "lambda", "carlitz", "tensor", "cw-bridge")

# Layers reported as <layer>.calls (fields has its own pair) and <layer>.self_s.
CALL_LAYERS = ("linpoly", "critical", "restricted", "qcomb")
SELF_LAYERS = ("fields", "linalg", "codes", "semifield", "linpoly", "critical",
               "restricted", "qcomb", "cli")

# Per-layer counts that must repeat exactly on every traced op.
COUNT_METRICS = (
    "fields.calls", "fields.ext_calls",
    "linalg.rref_calls", "linalg.solution_space_calls", "linalg.span_items",
    "linalg.projective_items",
    "codes.subspaces", "codes.accepted", "codes.accept_ratio",
    "codes.rref_per_subspace",
    "semifield.aut_scans", "semifield.equiv_tests", "semifield.gl_pairs",
    "semifield.hit_ratio",
    "linpoly.calls", "critical.calls", "restricted.calls", "qcomb.calls",
    "errors.charges", "errors.charged_steps",
)
TIME_METRICS = tuple(f"{layer}.self_s" for layer in SELF_LAYERS) + tuple(
    f"cli.suite_s.{name}" for name in SUITES
)


def rankmetric_modules() -> list:
    """The package and all its submodules, imported."""
    pkg = importlib.import_module("rankmetric")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"rankmetric.{info.name}"))
    return mods


def _is_plain_callable(obj) -> bool:
    """A function, or an lru_cache wrapper around one."""
    return inspect.isfunction(obj) or (
        callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")
    )


def _defined_in_package(obj) -> bool:
    return getattr(obj, "__module__", "").startswith("rankmetric.")


def _layer_of(obj) -> str:
    return obj.__module__.rsplit(".", 1)[-1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps the package's public callables and aggregates, per
    (function, calling layer), a record [calls, self seconds, items, own
    layer].

    Self time uses one running clock: at every entry into or exit from a
    wrapped call, the time since the previous such event is added to the
    record on top of the stack, i.e. the call that was running.  A plain
    call made from the same layer (FiniteField.sub calling add, say) only
    counts; its time stays with the calling record, which is in the same
    layer, so every layer's self time is unchanged and the hottest calls
    skip the two clock reads.
    """

    def __init__(self) -> None:
        self._bench = [0, 0.0, 0, "bench"]
        self._stack: list[list] = [self._bench]
        self._last = [time.perf_counter()]
        # function key -> {calling layer -> record}
        self._stats: dict[str, dict[str, list]] = {}
        self._scopes: Counter = Counter()
        self.counters: Counter = Counter()
        self._patches: list[tuple] = []
        self._hooks = {
            "errors.charge": (self._on_charge, None),
            "codes.density_bruteforce": (self._enter_sweep, self._leave_sweep),
            "semifield.aut_group_size_bruteforce": (self._enter_scan, self._leave_scan),
            "semifield.is_equivalent_bruteforce": (self._enter_scan, self._leave_scan),
            "linalg.rref": (self._on_rref, None),
            "linalg.solution_space": (self._on_solve, None),
            "linalg.span_elements": (self._on_span, None),
        }
        self._item_hooks = {
            "codes.Grassmannian.iter_range": self._on_subspace,
            "codes.Grassmannian.iter_packed_range": self._on_subspace,
        }

    # ------------------------------------------------------------------
    # hooks keeping scoped counters
    # ------------------------------------------------------------------
    def _enter_sweep(self, args, kwargs) -> None:
        self._scopes["sweep"] += 1

    def _leave_sweep(self, args, kwargs, result) -> None:
        self._scopes["sweep"] -= 1
        if result is not None:
            self.counters["codes.accepted"] += result.count

    def _enter_scan(self, args, kwargs) -> None:
        self._scopes["scan"] += 1
        self.counters["scan_solves"] = 0

    def _leave_scan(self, args, kwargs, result) -> None:
        self._scopes["scan"] -= 1

    def _on_charge(self, args, kwargs) -> None:
        cost = args[0] if args else kwargs["cost"]
        self.counters["errors.charged_steps"] += cost

    def _on_rref(self, args, kwargs) -> None:
        if self._scopes["sweep"]:
            self.counters["sweep_rref"] += 1

    def _on_solve(self, args, kwargs) -> None:
        # The first solve of a scan is for the code's check matrix; every
        # later one is the left-multiplier solve of one (rho, g) pair.
        if self._scopes["scan"]:
            self.counters["scan_solves"] += 1
            if self.counters["scan_solves"] > 1:
                self.counters["semifield.gl_pairs"] += 1

    def _on_span(self, args, kwargs) -> None:
        if self._scopes["scan"]:
            self.counters["scan_spans"] += 1

    def _on_subspace(self) -> None:
        if self._scopes["sweep"]:
            self.counters["swept"] += 1

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _record(self, by_caller: dict, caller_layer: str, layer: str) -> list:
        rec = by_caller.get(caller_layer)
        if rec is None:
            rec = by_caller[caller_layer] = [0, 0.0, 0, layer]
        return rec

    def _wrap_function(self, fn, layer: str, key: str):
        stack, last, record = self._stack, self._last, self._record
        by_caller = self._stats.setdefault(key, {})
        clock = time.perf_counter
        enter, leave = self._hooks.get(key, (None, None))
        hooked = enter is not None or leave is not None

        def wrapper(*args, **kwargs):
            caller = stack[-1]
            rec = by_caller.get(caller[3]) or record(by_caller, caller[3], layer)
            rec[0] += 1
            if caller[3] == layer and not hooked:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(args, kwargs)
            now = clock()
            caller[1] += now - last[0]
            last[0] = now
            stack.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                now = clock()
                rec[1] += now - last[0]
                last[0] = now
                stack.pop()
                if leave is not None:
                    leave(args, kwargs, result)

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, True)
        return wrapper

    def _wrap_generator(self, fn, layer: str, key: str):
        """Each resumption of the generator is timed like a call, so the
        work of producing an item is charged to this layer and the
        consumer's work between items is not."""
        stack, last, record = self._stack, self._last, self._record
        by_caller = self._stats.setdefault(key, {})
        clock = time.perf_counter
        enter, _ = self._hooks.get(key, (None, None))
        on_item = self._item_hooks.get(key)

        def wrapper(*args, **kwargs):
            rec = record(by_caller, stack[-1][3], layer)
            rec[0] += 1
            if enter is not None:
                enter(args, kwargs)
            it = fn(*args, **kwargs)
            while True:
                now = clock()
                stack[-1][1] += now - last[0]
                last[0] = now
                stack.append(rec)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    now = clock()
                    rec[1] += now - last[0]
                    last[0] = now
                    stack.pop()
                rec[2] += 1
                if on_item is not None:
                    on_item()
                yield item

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, True)
        return wrapper

    def _wrap(self, fn, layer: str, key: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, key)
        return self._wrap_function(fn, layer, key)

    def _wrap_suite(self, fn, name: str):
        inner = self._wrap_function(fn, "cli", f"cli.suite.{name}")

        def suite(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.counters[f"cli.suite_s.{name}"] += time.perf_counter() - t0

        setattr(suite, MARK, True)
        return suite

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = rankmetric_modules()
        wrapped: dict[int, object] = {}
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for obj in list(vars(mod).values()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj, layer)
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if not (_is_plain_callable(obj) and _defined_in_package(obj)):
                    continue
                if obj.__name__.startswith("_"):
                    continue
                if id(obj) not in wrapped:
                    layer = _layer_of(obj)
                    wrapped[id(obj)] = self._wrap(obj, layer, f"{layer}.{obj.__qualname__}")
                self._patch(mod, name, wrapped[id(obj)])
        cli = importlib.import_module("rankmetric.cli")
        for name in SUITES:
            original = cli.SUITES[name]
            self._patches.append((cli.SUITES, name, original))
            cli.SUITES[name] = self._wrap_suite(original, name)

    def _install_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{layer}.{cls.__qualname__}.{name}"
            if isinstance(attr, (staticmethod, classmethod)):
                self._patch(cls, name, type(attr)(self._wrap(attr.__func__, layer, key)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(attr, layer, key))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every count and time, keeping the wrappers in place."""
        for rec in [self._bench] + [
            rec for by_caller in self._stats.values() for rec in by_caller.values()
        ]:
            rec[0], rec[1], rec[2] = 0, 0.0, 0
        self.counters.clear()
        self._last[0] = time.perf_counter()

    def _sum(self, prefix: str, field: int) -> float:
        """Total of one record field over the functions whose key starts
        with prefix, from every calling layer."""
        total = 0
        for key, by_caller in self._stats.items():
            if key.startswith(prefix):
                total += sum(rec[field] for rec in by_caller.values())
        return total

    def _calls(self, *keys: str) -> int:
        return sum(rec[0] for key in keys for rec in self._stats.get(key, {}).values())

    def _items(self, *keys: str) -> int:
        return sum(rec[2] for key in keys for rec in self._stats.get(key, {}).values())

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the work traced since the last reset."""
        c = self.counters
        out: dict[str, float] = {}
        out["fields.calls"] = self._sum("fields.", 0)
        out["fields.ext_calls"] = self._sum("fields.ExtField.", 0)
        out["linalg.rref_calls"] = self._calls("linalg.rref")
        out["linalg.solution_space_calls"] = self._calls("linalg.solution_space")
        out["linalg.span_items"] = self._items("linalg.span_elements")
        out["linalg.projective_items"] = self._items("linalg.projective_reps")
        out["codes.subspaces"] = self._items(
            "codes.Grassmannian.iter_range", "codes.Grassmannian.iter_packed_range"
        )
        out["codes.accepted"] = c["codes.accepted"]
        out["codes.accept_ratio"] = _ratio(c["codes.accepted"], c["swept"])
        out["codes.rref_per_subspace"] = _ratio(c["sweep_rref"], c["swept"])
        out["semifield.aut_scans"] = self._calls("semifield.aut_group_size_bruteforce")
        out["semifield.equiv_tests"] = self._calls(
            "semifield.is_equivalent_bruteforce", "semifield.is_equivalent_monomial"
        )
        out["semifield.gl_pairs"] = c["semifield.gl_pairs"]
        out["semifield.hit_ratio"] = _ratio(c["scan_spans"], c["semifield.gl_pairs"])
        for layer in CALL_LAYERS:
            out[f"{layer}.calls"] = self._sum(f"{layer}.", 0)
        out["errors.charges"] = self._calls("errors.charge")
        out["errors.charged_steps"] = c["errors.charged_steps"]
        for layer in SELF_LAYERS:
            out[f"{layer}.self_s"] = self._sum(f"{layer}.", 1)
        for name in SUITES:
            out[f"cli.suite_s.{name}"] = c[f"cli.suite_s.{name}"]
        return out


def leftover_wrappers() -> list[str]:
    """Names in the package that still hold a tracer wrapper."""
    found = []
    for mod in rankmetric_modules():
        for name, obj in vars(mod).items():
            if getattr(obj, MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr_name, attr in vars(obj).items():
                    if getattr(getattr(attr, "__func__", attr), MARK, False):
                        found.append(f"{mod.__name__}.{obj.__qualname__}.{attr_name}")
    cli = importlib.import_module("rankmetric.cli")
    found += [f"rankmetric.cli.SUITES[{k!r}]" for k, v in cli.SUITES.items()
              if getattr(v, MARK, False)]
    return found
