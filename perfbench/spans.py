"""Span recorder for the traced benchmark run.

The recorder wraps public functions of liefact where they are looked up:
every module attribute bound to the original function (``iso.are_isomorphic``
and ``deform.are_isomorphic`` alike) and methods on ``Matrix`` and
``LieAlgebra``.  Each call records one span (group, start, end, parent) in
flat arrays that stay in memory until the run ends; nothing is written while
the workload runs.  A call made while the innermost open span already belongs
to the same group is folded into that span (``Matrix.inverse`` calling
``rref``, ``ad`` calling ``bracket``), so a group's call count is the number
of requests made to it from outside.

Self time of a span is its duration minus the durations of its child spans;
children run one after another on one thread, so their durations do not
overlap.  ``uninstall`` restores every original attribute.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

from liefact import deform, derivations, iso, liecore, scenarios
from liefact.exactmath import Matrix
from liefact.liecore import LieAlgebra

ROOT_GROUP = "bench.job"

# iso.are_isomorphic verdict tags
TAG_YES, TAG_NO_FP, TAG_NO_EXHAUSTED, TAG_UNKNOWN = 1, 2, 3, 4


def _cells(args, result):
    m = args[0]
    return m.nrows * m.ncols, 0


def _mults(args, result):
    a, b = args[0], args[1]
    if isinstance(b, Matrix):
        return a.nrows * a.ncols * b.ncols, 0
    return a.nrows * a.ncols, 0


def _accepted(args, result):
    return len(result), 0


def _search(args, result):
    if result.verdict == "yes":
        tag = TAG_YES
    elif result.verdict == "unknown":
        tag = TAG_UNKNOWN
    elif result.certificate.startswith("complete search exhausted"):
        tag = TAG_NO_EXHAUSTED
    else:
        tag = TAG_NO_FP
    return result.searched, tag


# group -> ([(owner, attribute name)], payload function or None)
LAYERS = {
    "exactmath.elim": (
        [(Matrix, n) for n in ("rref", "rank", "nullspace", "solve", "inverse", "det")],
        _cells,
    ),
    "exactmath.matmul": ([(Matrix, "__mul__"), (Matrix, "__rmul__"), (Matrix, "mul_vector")], _mults),
    "liecore.bracket": (
        [(LieAlgebra, n) for n in ("bracket", "bracket_basis", "ad", "ad_basis")],
        None,
    ),
    "liecore.series": (
        [(liecore, n) for n in ("derived_series", "lower_central_series", "center", "killing_gram")],
        None,
    ),
    "liecore.forms": ([(liecore, "invariant_bilinear_forms"), (liecore, "self_dual")], None),
    "derivations.solve": (
        [(derivations, n) for n in ("derivation_space", "twisted_derivations_for_lambda",
                                    "enumerate_twisted_derivations")],
        None,
    ),
    "deform.sweep": ([(deform, "enumerate_deformation_maps")], _accepted),
    "deform.candidate": ([(deform, "is_deformation_map")], None),
    "deform.r_deformation": ([(deform, "r_deformation")], None),
    "deform.classify": ([(deform, "classify_complements")], None),
    "iso.fingerprint": ([(iso, "fingerprint")], None),
    "iso.search": ([(iso, "are_isomorphic")], _search),
    "iso.aut_enumerate": ([(iso, "aut_enumerate")], None),
    "iso.aut_multiply": ([(iso, "aut_multiply")], None),
    "iso.aut_triples": ([(iso, "enumerate_aut_triples")], None),
    "scenarios.run": ([(scenarios, "run_scenario")], None),
}


def _liefact_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "liefact" or name.startswith("liefact."))]


class Recorder:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        self.groups = [ROOT_GROUP] + list(LAYERS)
        self.group_id = {g: i for i, g in enumerate(self.groups)}
        self.name = array("h")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.tag = array("b")
        self._stack = [-1]
        self._patched = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------------

    def _open(self, gid: int) -> int:
        idx = len(self.name)
        self.name.append(gid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.work.append(0)
        self.tag.append(0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, group: str = ROOT_GROUP):
        """Record a span around a block (the benchmark opens one per job)."""
        idx = self._open(self.group_id[group])
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, gid: int, fn, payload):
        stack, names = self._stack, self.name
        start, end, work, tag = self.start, self.end, self.work, self.tag
        open_span = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] == gid:
                return fn(*args, **kwargs)
            idx = open_span(gid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if payload is not None:
                work[idx], tag[idx] = payload(args, result)
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        """Replace each layer function wherever a liefact module binds it."""
        if self._patched:
            raise RuntimeError("recorder already installed")
        modules = _liefact_modules()
        for group, (targets, payload) in LAYERS.items():
            gid = self.group_id[group]
            wrappers = {}
            for owner, attr in targets:
                original = owner.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = (original, self._wrap(gid, original, payload))
            for original, wrapper in wrappers.values():
                for owner in [Matrix, LieAlgebra] + modules:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patched.append((owner, attr, original))
                            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def patched_attributes(self) -> list:
        return [(owner, attr) for owner, attr, _ in self._patched]

    # -- summary ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-group calls, inclusive and self seconds, work and verdict tags."""
        n = len(self.name)
        covered = array("d", bytes(8 * n))
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = {g: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "tags": {}}
               for g in self.groups}
        for i in range(n):
            rec = out[self.groups[name[i]]]
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - covered[i]
            rec["work"] += self.work[i]
            t = self.tag[i]
            if t:
                rec["tags"][t] = rec["tags"].get(t, 0) + 1
        return out

    def child_stats(self, group: str, parent_group: str) -> tuple:
        """(count, summed duration) of `group` spans whose parent is a `parent_group` span."""
        gid, pid = self.group_id[group], self.group_id[parent_group]
        count, total = 0, 0.0
        for i in range(len(self.name)):
            p = self.parent[i]
            if self.name[i] == gid and p >= 0 and self.name[p] == pid:
                count += 1
                total += self.end[i] - self.start[i]
        return count, total

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: index, group, parent, start, end, work."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tgroup\tparent\tstart\tend\twork\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.groups[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]!r}\t{self.end[i]!r}\t{self.work[i]}\n")
