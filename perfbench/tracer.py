"""Span recorder that wraps the public functions and methods of gibbs1d.

``Tracer.install`` replaces every public function of the traced modules, and
every public method, staticmethod and property getter of the classes they
define, with a wrapper that times the call.  A function is patched under
every name the program looks it up by: each ``artifact`` module that holds
the function object (``from .kernel import window_weight`` in ``dynamics``,
the re-exports in ``artifact/__init__``) gets the wrapper.  Methods are
patched once, on their class.  The ``Interval`` class is left alone, so no
interval arithmetic operator is wrapped.

Spans nest on one stack.  When a span ends, its duration is charged to its
parent as child time, so the self time of a span is its duration minus the
time covered by its child spans.  Spans are aggregated per function as they
end (calls, inclusive seconds, self seconds and an optional amount read
from the arguments or the result) instead of being kept one by one: some
functions are entered hundreds of thousands of times per process.
"""

from __future__ import annotations

import functools
import inspect
import time

TRACED_MODULES = ("cli", "intervals", "potential", "fseq", "ratiobound", "criteria", "kernel", "dynamics")

# Classes whose methods are not wrapped: the interval arithmetic type.
UNTRACED_CLASSES = {"intervals.Interval"}


def _len(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 1


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Amounts recorded next to the call counts: qualified name -> (args, kwargs, result) -> number.
AMOUNTS = {
    "intervals.float_sum_enclosure": lambda a, k, r: _len(_arg(a, k, 0, "terms")),
    "potential.PairPotential.tail_enclosure_table": lambda a, k, r: int(_arg(a, k, 1, "horizon")),
    "ratiobound.rn_series": lambda a, k, r: int(r.terms_used),
    "criteria.evaluate_all": lambda a, k, r: sum(v.outcome != "Inconclusive" for v in r.verdicts),
    "dynamics.sample_chain": lambda a, k, r: int(_arg(a, k, 2, "N")),
    "dynamics.couple_two_pasts": lambda a, k, r: int(_arg(a, k, 3, "N")),
    "dynamics.write_chain_csv": lambda a, k, r: len(_arg(a, k, 0, "run").samples),
    "dynamics.write_coupling_csv": lambda a, k, r: len(_arg(a, k, 0, "run").disagree),
}


class Tracer:
    """Per-function span aggregates for one process."""

    def __init__(self) -> None:
        self.stats: dict = {}  # qualified name -> [calls, total_s, self_s, amount]
        self._stack: list = []  # child seconds accumulated by each open span

    def wrap(self, fn, key: str):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        amount = AMOUNTS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
            if amount is not None:
                stats[3] += amount(args, kwargs, out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap the traced modules of ``package``."""
        modules = {name: getattr(package, name) for name in TRACED_MODULES}
        everywhere = [package] + list(modules.values())
        replaced: dict = {}  # id(original function) -> (function, wrapper)
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    if inspect.isclass(obj) and getattr(obj, "__module__", None) == mod.__name__:
                        self._wrap_class(obj, f"{short}.{name}")
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self.wrap(obj, f"{short}.{name}"))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{short}.{name}")
        for mod in everywhere:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_class(self, cls, key: str) -> None:
        if key in UNTRACED_CLASSES:
            return
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{key}.{name}"
            if isinstance(member, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(member.__func__, qual)))
            elif isinstance(member, classmethod):
                setattr(cls, name, classmethod(self.wrap(member.__func__, qual)))
            elif isinstance(member, property) and member.fget is not None:
                setattr(cls, name, property(self.wrap(member.fget, qual), member.fset, member.fdel, member.__doc__))
            elif inspect.isfunction(member):
                setattr(cls, name, self.wrap(member, qual))

    def snapshot(self) -> dict:
        return {
            key: {"calls": c, "total_s": t, "self_s": s, "amount": a}
            for key, (c, t, s, a) in self.stats.items()
            if c
        }


def import_times(stderr_text: str, prefix: str) -> float:
    """Seconds spent importing the outermost modules named ``prefix`` or ``prefix.*``.

    Reads the ``-X importtime`` report, whose lines list a module after the
    modules it imported, indented one level deeper.  A module counts when no
    enclosing import already matches, so nested matches are not added twice.
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(fields[1])))
    total_us = 0
    open_parents: list = []  # (depth, matches) of enclosing imports, walking from the end
    for depth, name, cumulative in reversed(entries):
        while open_parents and open_parents[-1][0] >= depth:
            open_parents.pop()
        matches = name == prefix or name.startswith(prefix + ".")
        if matches and not any(m for _, m in open_parents):
            total_us += cumulative
        open_parents.append((depth, matches))
    return total_us * 1e-6
