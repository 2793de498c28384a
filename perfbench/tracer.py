"""Per-layer counters and timings, taken from outside grade3.

Every grade3 module imports its collaborators by name (``from .exact import
rational_rank``), so a call from ``presentation`` into ``exact`` goes through
the binding in ``presentation``'s namespace, not through ``grade3.exact``.
:func:`Tracer.install` therefore replaces each traced function at every
binding site: in the module that defines it and in every module that
imported it.  A wrapper records a span (calls, total time, and self time,
which is total time minus the time of traced spans it encloses).  A call
nested inside a span of the same key is passed straight through, so
``sparse_rank`` calling ``rational_rank`` counts as one rank call.

The planner's search does not call ``apply_rule``: it reads each rule from
``linkrules.RULES`` and calls the rule's ``check``, ``out_format`` and
``out_class`` itself.  Those three callables are wrapped too, under
``linkrules.rule``, by replacing each entry of ``RULES`` (the one dict every
module shares) with a copy that holds wrapped callables.  They are called
about a million times on ``coverage``, so they get a lighter span (no
nesting bookkeeping; they call nothing traced), which still carries most of
the tracing overhead there, and its time includes two clock reads per call.

Nothing here changes what grade3 computes: wrappers pass arguments and
results through unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict
from collections.abc import Sized

# Span key -> (module, function names).  ``labels`` and ``errors`` hold value
# types and are not timed.
TRACED = {
    "exact.rank": ("grade3.exact", ("rational_rank", "sparse_rank")),
    "presentation.classify": ("grade3.presentation", ("classify",)),
    "presentation.validate": ("grade3.presentation", ("validate_presentation",)),
    "presentation.build": (
        "grade3.presentation",
        ("canonical_presentation", "arranged_presentation", "make_presentation"),
    ),
    "presentation.doc": (
        "grade3.presentation",
        ("presentation_from_document", "presentation_to_document"),
    ),
    "cone.run": ("grade3.cone", ("mapping_cone_presentation",)),
    "cone.verify": ("grade3.cone", ("verify_linkage_theorems",)),
    "permissible.is_permissible": ("grade3.permissible", ("is_permissible",)),
    "permissible.atlas": ("grade3.permissible", ("atlas_grid",)),
    "linkrules.apply": ("grade3.linkrules", ("apply_rule",)),
    # "linkrules.rule": each rule's check, out_format and out_class (see install).
    "planner.realize": ("grade3.planner", ("realize",)),
    "planner.verify": ("grade3.planner", ("verify_certificate",)),
    "cli.main": ("grade3.cli", ("main",)),
}


def _cells(rows: object) -> int:
    """rows x cols of a matrix handed to exact: dense rows, or sparse dict rows."""
    rows = list(rows)
    if not rows:
        return 0
    if isinstance(rows[0], dict):
        return len(rows) * len(set().union(*rows))
    return len(rows) * len(rows[0])


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.cells = 0
        self._active: dict[str, int] = defaultdict(int)
        self._children: list[list[float]] = []
        self._leaves: dict[str, list] = {}

    def _wrap(self, key: str, fn):
        active, children = self._active, self._children
        clock = self.clock
        count_cells = key == "exact.rank"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[key]:
                return fn(*args, **kwargs)
            if count_cells:
                rows = args[0]
                if not isinstance(rows, Sized):
                    # A one-shot iterable is materialised so both we and exact can read it.
                    rows = list(rows)
                    args = (rows,) + args[1:]
                self.cells += _cells(rows)
            active[key] = 1
            inner = [0.0]
            children.append(inner)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children.pop()
                active[key] = 0
                self.calls[key] += 1
                self.total[key] += duration
                self.self_time[key] += duration - inner[0]
                if children:
                    children[-1][0] += duration

        return wrapper

    def _wrap_leaf(self, key: str, fn):
        """A lighter span for small functions that call nothing traced: no nesting bookkeeping."""
        children, clock = self._children, self.clock
        counts = self._leaves.setdefault(key, [0, 0.0])  # [calls, seconds], shared by the key's wrappers

        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                duration = clock() - start
                counts[0] += 1
                counts[1] += duration
                if children:
                    children[-1][0] += duration

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every grade3 binding site."""
        import grade3.cli  # noqa: F401  (loads every module that binds a traced name)

        modules = [mod for name, mod in sys.modules.items() if name == "grade3" or name.startswith("grade3.")]
        for key, (module_name, names) in TRACED.items():
            for name in names:
                original = getattr(sys.modules[module_name], name)
                wrapper = self._wrap(key, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        from grade3 import linkrules

        wrap = functools.partial(self._wrap_leaf, "linkrules.rule")
        for rule_id, rule in list(linkrules.RULES.items()):
            linkrules.RULES[rule_id] = dataclasses.replace(
                rule, check=wrap(rule.check), out_format=wrap(rule.out_format), out_class=wrap(rule.out_class)
            )

    def snapshot(self) -> dict:
        """Counters for this process, plus the caches grade3 keeps for its lifetime."""
        from grade3 import permissible, planner

        for key, (calls, total) in self._leaves.items():
            self.calls[key], self.total[key], self.self_time[key] = calls, total, total
        info = permissible._verdict_cached.cache_info()
        searches = planner._SEARCHES.values()
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "cells": self.cells,
            "cache_hits": info.hits,
            "cache_misses": info.misses,
            "bounds_built": len(planner._SEARCHES),
            "states_discovered": sum(len(search.parent) for search in searches),
        }


def cli_main() -> None:
    """Run the grade3 CLI traced; counters go to the file named in argv[1].

    Usage: ``python -c 'import tracer; tracer.cli_main()' STATS_FILE ARGS...``
    with ``perfbench`` and ``src`` on the path.  stdout and the exit code are
    the CLI's own.
    """
    import json

    stats_path = sys.argv[1]
    del sys.argv[1]
    start = time.perf_counter()
    import grade3.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = grade3.cli.main()
    finally:
        sys.stdout.flush()
        snap = tracer.snapshot()
        snap["import_s"] = import_s
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(snap, handle)
    sys.exit(code)
