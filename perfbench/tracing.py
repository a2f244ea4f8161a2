"""Per-layer tracing for the benchmark, installed from outside the package.

Every traced function is wrapped where callers find it: in each
``ncnperms.*`` namespace that holds it (``cli`` and ``verify`` import layer
functions by name), inside module-level dispatch dicts such as
``formats.EMITTERS``, and on the class for methods.  A wrapper records one
span per call: calls, errors, busy (inclusive) time and self time, which is
busy time minus the time of traced calls made inside it.  Spans stay in
memory; ``Tracer.metrics`` turns them into the per-layer metrics once the
workload has finished.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Stat:
    """Everything recorded for one traced name."""

    calls: int = 0
    errors: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    items: int = 0  # values yielded by a traced generator
    avoided: int = 0  # contains() calls that found no occurrence
    bytes: int = 0  # characters returned by an emitter (ASCII, so bytes)
    checks: int = 0
    failed_checks: int = 0
    sizes: dict = field(default_factory=dict)  # size -> [busy seconds, ...]


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _solve_size(args, kwargs):
    # Fit the Newton exponent on the non-crossing equation only; its orders
    # 100/200/400 are the sizes the series workload runs.
    from ncnperms.core import Discipline
    from ncnperms.series import builtin_equation

    equation = args[0] if args else kwargs["equation"]
    order = args[2] if len(args) > 2 else kwargs["order"]
    if equation == builtin_equation(Discipline.NON_CROSSING):
        return order
    return None


def _observe_contains(stat, result):
    if result is False:
        stat.avoided += 1


def _observe_emit(stat, result):
    stat.bytes += len(result.encode())


def _observe_verify(stat, result):
    stat.checks += len(result)
    stat.failed_checks += sum(1 for check in result if not check.passed)


@dataclass(frozen=True)
class Spec:
    """One traced name: metric prefix, defining module, attribute names."""

    prefix: str
    module: str
    names: tuple[str, ...]
    generator: bool = False
    size: Callable | None = None
    observe: Callable | None = None

    @property
    def layer(self) -> str:
        return self.prefix.split(".")[0]


SPECS = (
    Spec("recurrences.nn", "ncnperms.recurrences", ("nonnesting_231_system",), size=_first_arg),
    Spec("recurrences.nc", "ncnperms.recurrences", ("noncrossing_231_system",), size=_first_arg),
    Spec("recurrences.compositions", "ncnperms.recurrences", ("qbar_via_compositions",)),
    Spec("series.solve", "ncnperms.series", ("solve_algebraic",), size=_solve_size),
    Spec("series.compose", "ncnperms.series", ("BivariatePolynomial.compose",)),
    Spec("series.residual", "ncnperms.series", ("residual",)),
    Spec("enumeration", "ncnperms.enumeration", ("labeled_words",), generator=True),
    Spec("enumeration.count", "ncnperms.enumeration", ("count_by_constraint",), size=_first_arg),
    Spec("core.word", "ncnperms.core", ("Word.__post_init__",)),
    Spec("patterns.contains", "ncnperms.patterns", ("contains",), observe=_observe_contains),
    Spec("growth.root", "ncnperms.growth", ("minimal_positive_root",)),
    Spec("growth.evaluate", "ncnperms.growth", ("IntPolynomial.evaluate",)),
    Spec("growth.ratio", "ncnperms.growth", ("ratio",)),
    Spec("formats.emit", "ncnperms.formats", ("to_bfile", "to_csv", "to_json"), observe=_observe_emit),
    Spec("cli.main", "ncnperms.cli", ("main",)),
    Spec("verify", "ncnperms.verify", ("run_verification",), observe=_observe_verify),
)

LAYERS = tuple(sorted({spec.layer for spec in SPECS}))

#: Sizes each exponent is fitted over: the three sizes a workload already runs.
EXPONENT_SIZES = {
    "recurrences.nn.exp": ("recurrences.nn", (300, 600, 1000)),
    "recurrences.nc.exp": ("recurrences.nc", (300, 600, 1000)),
    "series.newton.exp": ("series.solve", (100, 200, 400)),
    "enumeration.exp": ("enumeration.count", (4, 5, 6)),
}


def mults_computed(nn_limits, nc_limits) -> int:
    """Big-integer products the convolution systems perform, from their limits.

    Non-nesting: eight convolutions of n terms at each index n = 1..L, so
    4L(L+1).  Non-crossing: n + n + n + (n+1) products at index n, so
    2L(L+1) + L.
    """
    return sum(4 * lim * (lim + 1) for lim in nn_limits) + sum(
        2 * lim * (lim + 1) + lim for lim in nc_limits
    )


def fit_exponent(samples: dict, sizes) -> float:
    """Least-squares slope of log(mean busy time) on log(size); 0.0 when a
    size is missing."""
    if not all(samples.get(size) for size in sizes):
        return 0.0
    xs = [math.log(size) for size in sizes]
    ys = [math.log(sum(samples[size]) / len(samples[size])) for size in sizes]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


class Tracer:
    """Wraps every name in SPECS and accumulates one Stat per spec."""

    def __init__(self) -> None:
        self.stats = {spec.prefix: Stat() for spec in SPECS}
        self.bindings = dict.fromkeys(self.stats, 0)
        self._stack: list[float] = []  # time of traced children, per open span

    # -- wrapping ---------------------------------------------------------

    def _close(self, stat: Stat, start: float) -> float:
        elapsed = perf_counter() - start
        children = self._stack.pop()
        stat.busy += elapsed
        stat.self_time += elapsed - children
        if self._stack:
            self._stack[-1] += elapsed
        return elapsed

    def _wrap_function(self, spec: Spec, fn):
        stat = self.stats[spec.prefix]
        stack = self._stack
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                close(stat, start)
                raise
            elapsed = close(stat, start)
            stat.calls += 1
            if spec.observe is not None:
                spec.observe(stat, result)
            if spec.size is not None:
                size = spec.size(args, kwargs)
                if size is not None:
                    stat.sizes.setdefault(size, []).append(elapsed)
            return result

        return wrapper

    def _wrap_generator(self, spec: Spec, fn):
        # Only the time spent producing each value counts; the consumer's
        # work between values belongs to the consumer's own span.
        stat = self.stats[spec.prefix]
        stack = self._stack
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            values = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = perf_counter()
                try:
                    value = next(values)
                except StopIteration:
                    close(stat, start)
                    return
                except BaseException:
                    stat.errors += 1
                    close(stat, start)
                    raise
                close(stat, start)
                stat.items += 1
                yield value

        return wrapper

    def install(self) -> None:
        """Rebind every traced name in every namespace that holds it."""
        packages = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "ncnperms" or name.startswith("ncnperms.")
        ]
        for spec in SPECS:
            home = sys.modules[spec.module]
            wrap = self._wrap_generator if spec.generator else self._wrap_function
            for name in spec.names:
                owner_name, _, attr = name.rpartition(".")
                if owner_name:  # a method: rebinding the class reaches every caller
                    owner = getattr(home, owner_name)
                    setattr(owner, attr, wrap(spec, getattr(owner, attr)))
                    self.bindings[spec.prefix] += 1
                    continue
                original = getattr(home, attr)
                wrapped = wrap(spec, original)
                for module in packages:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
                            self.bindings[spec.prefix] += 1
                        elif isinstance(value, dict):
                            for k, v in value.items():
                                if v is original:
                                    value[k] = wrapped
                                    self.bindings[spec.prefix] += 1

    # -- results ----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything traced so far; shares are self
        time over ``wall_s``, the traced time of the whole command sequence."""
        s = self.stats
        out = {
            "recurrences.nn.busy_s": s["recurrences.nn"].busy,
            "recurrences.nc.busy_s": s["recurrences.nc"].busy,
            "recurrences.system.calls": s["recurrences.nn"].calls + s["recurrences.nc"].calls,
            "recurrences.mults": mults_computed(
                _expand(s["recurrences.nn"].sizes), _expand(s["recurrences.nc"].sizes)
            ),
            "recurrences.compositions.busy_s": s["recurrences.compositions"].busy,
            "series.solve.calls": s["series.solve"].calls,
            "series.solve.busy_s": s["series.solve"].busy,
            "series.compose.calls": s["series.compose"].calls,
            "series.compose.busy_s": s["series.compose"].busy,
            "series.residual.busy_s": s["series.residual"].busy,
            "enumeration.words": s["enumeration"].items,
            "enumeration.busy_s": s["enumeration"].busy,
            "enumeration.count.calls": s["enumeration.count"].calls,
            "enumeration.count.busy_s": s["enumeration.count"].busy,
            "core.word.inits": s["core.word"].calls,
            "core.word.busy_s": s["core.word"].busy,
            "patterns.contains.calls": s["patterns.contains"].calls,
            "patterns.contains.busy_s": s["patterns.contains"].busy,
            "patterns.avoid_ratio": (
                s["patterns.contains"].avoided / s["patterns.contains"].calls
                if s["patterns.contains"].calls
                else 0.0
            ),
            "growth.root.calls": s["growth.root"].calls,
            "growth.root.busy_s": s["growth.root"].busy,
            "growth.evaluate.calls": s["growth.evaluate"].calls,
            "growth.ratio.busy_s": s["growth.ratio"].busy,
            "formats.emit.busy_s": s["formats.emit"].busy,
            "formats.emit.bytes": s["formats.emit"].bytes,
            "cli.main.busy_s": s["cli.main"].busy,
            "cli.self_s": s["cli.main"].self_time,
            "verify.checks": s["verify"].checks,
            "verify.failed": s["verify"].failed_checks,
            "verify.busy_s": s["verify"].busy,
        }
        for name, (prefix, sizes) in EXPONENT_SIZES.items():
            out[name] = fit_exponent(s[prefix].sizes, sizes)
        for prefix, stat in s.items():
            out[f"{prefix}.errors"] = stat.errors
        for layer in LAYERS:
            self_time = sum(s[spec.prefix].self_time for spec in SPECS if spec.layer == layer)
            out[f"{layer}.self_share"] = self_time / wall_s if wall_s > 0 else 0.0
        return out


def _expand(sizes: dict) -> list:
    return [size for size, times in sizes.items() for _ in times]
