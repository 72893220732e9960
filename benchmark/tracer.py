"""Outside-in tracer for slicelab.

The tracer replaces the public entry points of each slicelab module with
wrappers that record a span (name, start, end, parent) per call, and puts
the originals back on exit.  Nothing under ``src/`` is edited.

``from .liecore import Ad`` and similar imports copy names into other
modules, so a function is patched in every ``slicelab`` module namespace
that holds the original object.  Methods are patched on their class.

Spans of one op are kept in memory and folded into running totals after
the op ends, outside its timed region.  The exact counters are computed
from call arguments and return values only.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

PACKAGE = "slicelab"
LAYERS = ("exactnum", "liecore", "slodowy", "poissongeom", "wonderful", "slices", "suites", "cli")

# (span name, module, attribute); "Class.method" patches the class.
ENTRIES = (
    ("exactnum.rref", "exactnum", "Mat.rref"),
    ("exactnum.matmul", "exactnum", "Mat.__matmul__"),
    ("exactnum.det", "exactnum", "Mat.det"),
    ("exactnum.inverse", "exactnum", "Mat.inverse"),
    ("exactnum.charpoly", "exactnum", "charpoly"),
    ("exactnum.maximal_minors", "exactnum", "maximal_minors"),
    ("liecore.bracket_coords", "liecore", "LieAlgebra.bracket_coords"),
    ("liecore.Ad", "liecore", "Ad"),
    ("liecore.chi", "liecore", "chi"),
    ("slodowy.conjugate_to_slice", "slodowy", "conjugate_to_slice"),
    ("slodowy.chi_section", "slodowy", "chi_section"),
    ("slodowy.slodowy_slice", "slodowy", "slodowy_slice"),
    ("poissongeom.fundamental_vf", "poissongeom", "fundamental_vf"),
    ("poissongeom.transversal_check", "poissongeom", "transversal_check"),
    ("poissongeom.lie_poisson_bivector", "poissongeom", "lie_poisson_bivector"),
    ("poissongeom.check_moment_condition", "poissongeom", "check_moment_condition"),
    ("wonderful.from_group_curve", "wonderful", "CurveSubspace.from_group_curve"),
    ("wonderful.limit", "wonderful", "limit"),
    ("wonderful.Subspace", "wonderful", "Subspace.__init__"),
    ("slices.compactified_fibre_pgl2", "slices", "compactified_fibre_pgl2"),
    ("slices.stabilizer_infinitesimal", "slices", "stabilizer_infinitesimal"),
    ("cli.main", "cli", "main"),
)

# Entries whose return value feeds an exact counter.
_KEEP_RESULT = frozenset({"exactnum.rref", "exactnum.maximal_minors"})


def check_span_name(function_name: str) -> str:
    """Span name of a suites check function: check_foo_bar -> suites.check.foo-bar."""
    return "suites.check." + function_name[len("check_"):].replace("_", "-")


def suite_entries(suites_module):
    """One entry per check of ``suites.SUITES``, in the order run_suite("all") runs them."""
    return tuple(
        (check_span_name(fn.__name__), "suites", fn.__name__)
        for checks in suites_module.SUITES.values()
        for fn in checks
    )


class SpanError(AssertionError):
    """Recorded spans do not nest, or an op's self times exceed its wall time."""


class Tracer:
    """Context manager that patches the entry points and records spans.

    Spans live in one flat list, ``FIELDS`` slots per span: name, start,
    end, parent index (-1 for a span opened by the benchmark itself),
    whether it is the outermost span of its name, and the kept result.
    A flat list of untracked scalars keeps the cyclic garbage collector's
    work, and with it the tracing overhead, small.
    """

    FIELDS = 6

    def __init__(self, entries):
        self.entries = tuple(entries)
        self.spans = []
        self._stack = []
        self._depth = defaultdict(int)
        self._patched = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        depth = self._depth
        keep = name in _KEEP_RESULT
        clock = time.perf_counter
        fields = self.FIELDS

        def traced(*args, **kwargs):
            base = len(spans)
            spans.extend((name, 0.0, 0.0, stack[-1] if stack else -1, depth[name] == 0, None))
            stack.append(base // fields)
            depth[name] += 1
            spans[base + 1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[base + 2] = clock()
                stack.pop()
                depth[name] -= 1
            if keep:
                spans[base + 5] = result
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        try:
            for name, module, attr in self.entries:
                home = sys.modules[f"{PACKAGE}.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        self._set(cls, meth, staticmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._set(cls, meth, self._wrap(name, raw))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self):
        """Spans recorded since the last call, one tuple per span, then forget them."""
        if self._stack:
            raise SpanError("an op ended with spans still open")
        flat = self.spans
        out = [tuple(flat[i:i + self.FIELDS]) for i in range(0, len(flat), self.FIELDS)]
        flat.clear()
        return out


def patched_count(entries) -> int:
    """Number of entry points of ``entries`` currently replaced by a wrapper."""
    count = 0
    for _, module, attr in entries:
        home = sys.modules[f"{PACKAGE}.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            value = getattr(home, cls_name).__dict__[meth]
            value = value.__func__ if isinstance(value, staticmethod) else value
        else:
            value = getattr(home, attr)
        count += hasattr(value, "__wrapped__")
    return count


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


class Totals:
    """Per-layer numbers summed over the ops of one traced run."""

    def __init__(self, entries):
        self.entry_names = tuple(name for name, _, _ in entries)
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_s = defaultdict(float)
        self.max_bits = 0
        self.minor_coeffs = 0
        self.minors_read = 0
        self.ad_inverses = 0
        self.slodowy_rrefs = 0
        self.slodowy_calls = 0

    def add_op(self, spans, wall: float):
        """Fold one op's spans in; checks nesting and that self times fit in ``wall``."""
        n = len(spans)
        child = [0.0] * n
        last_child_end = {}
        top = 0.0
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            if end < start:
                raise SpanError(f"span {name} ends before it starts")
            if parent < 0:
                top += end - start
                continue
            p_name, p_start, p_end = spans[parent][:3]
            if parent >= i or start < p_start or end > p_end:
                raise SpanError(f"span {name} is not inside its parent {p_name}")
            if start < last_child_end.get(parent, p_start):
                raise SpanError(f"span {name} overlaps a sibling under {p_name}")
            last_child_end[parent] = end
            child[parent] += end - start
        if top > wall:
            raise SpanError(f"self times sum to {top:.6f} s, more than the op's {wall:.6f} s")

        for i, (name, start, end, parent, outermost, result) in enumerate(spans):
            duration = end - start
            layer = _layer(name)
            self.calls[name] += 1
            if outermost:
                self.seconds[name] += duration
            self.self_s[layer] += duration - child[i]
            if name == "exactnum.rref":
                if result is not None:
                    bits = max((_bits(q) for row in result[0].rows for q in row), default=0)
                    self.max_bits = max(self.max_bits, bits)
                self.slodowy_rrefs += self._has_ancestor(spans, parent, "slodowy")
            elif name == "exactnum.maximal_minors" and result is not None:
                # Laurent minors only: limit() reads one coefficient of each
                # nonzero minor, at the lowest valuation among them.
                for minor in result:
                    coeffs = getattr(minor, "coeffs", None)
                    if coeffs:
                        self.minor_coeffs += len(coeffs)
                        self.minors_read += 1
            elif name == "exactnum.inverse":
                self.ad_inverses += parent >= 0 and spans[parent][0] == "liecore.Ad"
            elif layer == "slodowy":
                self.slodowy_calls += not self._has_ancestor(spans, parent, "slodowy")

    @staticmethod
    def _has_ancestor(spans, index, layer):
        while index >= 0:
            if _layer(spans[index][0]) == layer:
                return True
            index = spans[index][3]
        return False

    def metrics(self) -> dict:
        """Every per-layer number as name -> (value, unit).

        Counts and ratios depend only on the ops run, so they repeat
        exactly; a ratio with nothing to divide by is 0.
        """
        out = {f"{name}.calls": (self.calls[name], "count") for name in self.entry_names
               if not name.startswith("suites.check.")}
        out["exactnum.max_bits"] = (self.max_bits, "bits")
        out["exactnum.minor_coeffs"] = (self.minor_coeffs, "count")
        ad_calls = self.calls["liecore.Ad"]
        for name, num, den in (
            ("wonderful.minor_use_ratio", self.minors_read, self.minor_coeffs),
            ("liecore.Ad.inverse_per_call", self.ad_inverses, ad_calls),
            ("slodowy.rref_per_call", self.slodowy_rrefs, self.slodowy_calls),
        ):
            out[name] = (num / den if den else 0.0, "ratio")
        for name in self.entry_names:
            out[f"{name}.s"] = (self.seconds[name], "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out
