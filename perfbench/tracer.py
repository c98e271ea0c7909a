"""Spans around calls into the engine's layers, installed from outside.

`install()` wraps the public functions listed in TARGETS and rebinds each
wrapper at every `equitor` module that holds the original, because a
`from .semigroup import fiber_sample` binds the name in `divisors` too.
A target that no longer exists is reported as absent, never an error.

Every span is kept in memory as one row (request id, span id, parent span
id, name, start, end, status) and written out by `Tracer.dump()` when the
run ends.  Aggregates are kept alongside so a run need not re-read them.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from functools import cached_property

from equitor.errors import CappedComputationError
from shared import STAGES

OK, CAPPED, ERROR = 0, 1, 2

# Spans whose presence inside a call means the call did real work rather
# than answer from a cache (the hit ratios of build_semigroup, fiber_sample).
WORK_SPANS = ("semigroup.hilbert_basis", "semigroup.solve_system_nonneg")


def _solver_name(args, kwargs):
    stop = kwargs.get("stop_on_coord", args[4] if len(args) > 4 else None)
    return _solver_name.names[0 if stop is not None else 1]


_solver_name.names = ("semigroup.solver_fallback", "semigroup.solver_hilbert")


def _unbounded(result):
    return result[0] == "unbounded"


def _conclusive(result):
    return result != "inconclusive"


# (module, attribute path, span name or naming function, outcome classifier)
TARGETS = [
    ("lattice", "solve_diophantine", "lattice.solve_diophantine", None),
    ("lattice", "kernel_basis", "lattice.kernel_basis", None),
    ("lattice", "column_hnf", "lattice.column_hnf", None),
    ("lattice", "QuotientGroup.of", "lattice.QuotientGroup.of", None),
    ("lattice", "rational_shifted_cone_nonempty", "lattice.rational_shifted_cone_nonempty", None),
    ("lattice", "coset_orthant_search", "lattice.coset_orthant_search", _unbounded),
    ("semigroup", "minimal_nonneg_solutions", _solver_name, None),
    ("semigroup", "hilbert_basis", "semigroup.hilbert_basis", None),
    ("semigroup", "solve_system_nonneg", "semigroup.solve_system_nonneg", None),
    ("semigroup", "enumerate_fiber", "semigroup.enumerate_fiber", None),
    ("semigroup", "build_semigroup", "semigroup.build_semigroup", None),
    ("semigroup", "fiber_sample", "semigroup.fiber_sample", None),
    ("subgroups", "is_stable", "subgroups.is_stable", None),
    ("subgroups", "quotient_action", "subgroups.quotient_action", None),
    ("divisors", "DivisorContext.__init__", "divisors.DivisorContext", None),
    ("divisors", "DivisorContext.free_test", "divisors.free_test", None),
    ("divisors", "DivisorContext.char_divisor", "divisors.char_divisor", None),
    ("divisors", "DivisorContext.not_free_violator", "divisors.not_free_violator", None),
    ("reduced", "qualified_lattice", "reduced.qualified_lattice", None),
    ("reduced", "reduced_class_groups", "reduced.reduced_class_groups", None),
    ("oracles", "null_fiber_dimension", "oracles.null_fiber_dimension", None),
    ("oracles", "bounded_freeness_oracle", "oracles.bounded_freeness_oracle", _conclusive),
    ("cli", "main", "cli.main", None),
] + [("pipeline", f"Analysis.{s}", f"pipeline.{s}", None) for s in STAGES]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # one row per span, column-wise to keep memory small
        self.req = array("l")
        self.sid = array("l")
        self.parent = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.status = array("b")
        self.request = 0
        self._next_sid = 0
        self._stack: list[list] = []  # [span id, name id, start, child time, did work]
        self._depth: dict[int, int] = {}
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.capped: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self.flagged: dict[str, int] = {}
        self.absent: list[str] = []
        self._work_ids: set[int] = set()

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
            for d in (self.calls, self.incl, self.self_time, self.capped, self.hits, self.flagged):
                d[name] = 0
            if name in WORK_SPANS:
                self._work_ids.add(nid)
        return nid

    def wrap(self, fn, naming, classify):
        tracer = self
        fixed = None if callable(naming) else tracer._nid(naming)

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._nid(naming(args, kwargs))
            stack = tracer._stack
            if nid in tracer._work_ids:
                for frame in stack:
                    frame[4] = True
            sid = tracer._next_sid
            tracer._next_sid = sid + 1
            frame = [sid, nid, 0.0, 0.0, False]
            stack.append(frame)
            depth = tracer._depth
            depth[nid] = depth.get(nid, 0) + 1
            status = ERROR
            t0 = frame[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                status = OK
                return result
            except CappedComputationError:
                status = CAPPED
                raise
            finally:
                t1 = time.perf_counter()
                tracer._close(frame, t1, status, result if status == OK else None, classify)

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, t1, status, result, classify):
        sid, nid, t0, child, did_work = frame
        self._stack.pop()
        name = self.names[nid]
        dur = t1 - t0
        self.req.append(self.request)
        self.sid.append(sid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.status.append(status)
        self.calls[name] += 1
        self.self_time[name] += dur - child
        self._depth[nid] -= 1
        if self._depth[nid] == 0:
            self.incl[name] += dur
        if status == CAPPED:
            self.capped[name] += 1
        if not did_work:
            self.hits[name] += 1
        if classify is not None and status == OK and classify(result):
            self.flagged[name] += 1
        if self._stack:
            self._stack[-1][3] += dur

    def install(self):
        """Wrap every target that exists; record the others as absent."""
        for module, path, naming, classify in TARGETS:
            labels = [naming] if isinstance(naming, str) else list(naming.names)
            try:
                mod = importlib.import_module(f"equitor.{module}")
            except ModuleNotFoundError:
                mod = None
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.absent.extend(labels)
                continue
            if isinstance(raw, cached_property):
                new = cached_property(self.wrap(raw.func, naming, classify))
                new.__set_name__(owner, attr)
                setattr(owner, attr, new)
            elif isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(self.wrap(raw.__func__, naming, classify)))
            elif owner_name:
                setattr(owner, attr, self.wrap(raw, naming, classify))
            else:
                wrapped = self.wrap(raw, naming, classify)
                for m in list(sys.modules.values()):
                    if getattr(m, "__name__", "").startswith("equitor"):
                        for k, v in list(vars(m).items()):
                            if v is raw:
                                setattr(m, k, wrapped)

    def aggregates(self) -> dict:
        return {
            "calls": self.calls,
            "incl_s": self.incl,
            "self_s": self.self_time,
            "capped": self.capped,
            "hits": self.hits,
            "flagged": self.flagged,
            "absent": self.absent,
        }

    def dump(self, path):
        """Write every span as one JSON row: request, span, parent, name,
        start, end, status (0 ok, 1 capped, 2 other error)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "status": ["ok", "capped", "error"]}) + "\n")
            for i in range(len(self.name)):
                fh.write(
                    json.dumps(
                        [self.req[i], self.sid[i], self.parent[i], self.name[i], self.start[i], self.end[i], self.status[i]]
                    )
                    + "\n"
                )
