"""Per-layer tracing of polylie from outside the library.

`Tracer.install` wraps the public functions and methods of each layer module
(`polyring`, `derivation`, `span`, `canonical`, `reductions`, `grammar`,
`verify`, `cli`) in every namespace that binds them: a method is replaced on
its class, a function in each module of the package that imported it (so
`reductions.derived_series` and the `format_derivation` that
`Derivation.__str__` looks up are wrapped too).  Each call opens a span; a
span's self time is its duration minus that of its child spans, and counts
made inside a span (brackets, new vectors) are attributed to every enclosing
span.  Spans stay in memory; coarse ones are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
from math import comb

# Spans of these layers are kept as records; the fine-grained ones
# (polynomial arithmetic, brackets, parsing) only feed the aggregates, since a
# run makes millions of them.
RECORDED = ("cli", "verify", "span.basis", "span.lie_closure", "span.series",
            "canonical.witness", "canonical.lnd_check", "reductions")

# The checks `verify-paper --n 3` runs, by the name each reports.
VERIFY_CHECKS = (
    "scaled_bracket_identity", "scaled_bracket_commuting_case",
    "bracket_composition_oracle", "bracket_antisymmetry_jacobi",
    "constant_extraction_random", "linear_extraction_random",
    "bracket_fixtures", "solvability_fixtures", "derived_chain_witness_n1",
    "derived_chain_witness_n2", "local_nilpotency", "membership",
    "grammar_roundtrip",
)

_COUNT, _SECONDS, _RATIO = "count", "s", "ratio"


def _metric_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    rows = []

    def calls_self(layer):
        rows.append((f"{layer}.calls", _COUNT, "lower"))
        rows.append((f"{layer}.self_s", _SECONDS, "lower"))

    for op in ("mul", "addsub", "partial", "init"):
        calls_self(f"polyring.{op}")
    rows.append(("polyring.mul.terms_out", _COUNT, "lower"))
    for op in ("bracket", "apply"):
        calls_self(f"derivation.{op}")
    calls_self("span.basis")
    rows += [("span.basis.rows_in", _COUNT, "lower"),
             ("span.basis.rank_ratio", _RATIO, "higher")]
    calls_self("span.contains")
    rows.append(("span.contains.new_ratio", _RATIO, "higher"))
    calls_self("span.lie_closure")
    rows += [("span.lie_closure.brackets", _COUNT, "lower"),
             ("span.lie_closure.brackets_per_pair", _RATIO, "lower")]
    calls_self("span.series")
    rows += [("span.series.brackets", _COUNT, "lower"),
             ("span.series.cap_hit", _COUNT, "lower")]
    rows += [("canonical.witness.self_s", _SECONDS, "lower"),
             ("canonical.witness.brackets", _COUNT, "lower"),
             ("canonical.witness.kept_ratio", _RATIO, "higher")]
    for op in ("lnd_check", "membership", "generators"):
        calls_self(f"canonical.{op}")
    calls_self("reductions")
    rows += [(f"verify.{check}.total_s", _SECONDS, "lower") for check in VERIFY_CHECKS]
    for op in ("parse", "format"):
        calls_self(f"grammar.{op}")
    rows += [("cli.self_s", _SECONDS, "lower"),
             ("trace.overhead_s", _SECONDS, "lower")]
    return rows


PER_LAYER = _metric_table()


def _add(counts: dict, key: str, n=1) -> None:
    counts[key] = counts.get(key, 0) + n


# Hooks that count what one call did: (counts of its span, call args, result).

def _mul_terms(counts, args, result):
    if result is not NotImplemented:
        _add(counts, "terms_out", len(result._terms))


def _bracket(counts, args, result):
    _add(counts, "brackets")


def _basis(counts, args, result):
    # every caller passes the generators as a list, positionally
    _add(counts, "rows_in", len(args[2]))
    _add(counts, "rank", args[0].dim)


def _contains(counts, args, result):
    if not result:
        _add(counts, "new")


def _closure(counts, args, result):
    _add(counts, "pairs", comb(result.basis.dim, 2))


def _series(counts, args, result):
    if result.verdict == "cap_hit":
        _add(counts, "cap_hit")


class Tracer:
    """Span stack, per-layer aggregates and recorded spans of one traced pass."""

    def __init__(self, now):
        self._now = now  # the clock spans are timed on
        # frame: [name, child seconds, counts or None, record id or None]
        self._stack: list[list] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, counts]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def _wrap(self, fn, name, after=None, rename=None):
        now = self._now
        stack = self._stack
        stats = self.stats
        spans = self.spans
        record = name.startswith(RECORDED)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = {} if after is not None else None
            frame = [name, 0.0, counts, None]
            if record:
                frame[3] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(counts, args, result)
                if rename is not None:
                    frame[0] = rename(result)
                return result
            finally:
                end = now()
                stack.pop()
                dur = end - start
                span_name = frame[0]
                st = stats.get(span_name)
                if st is None:
                    st = stats[span_name] = [0, 0.0, 0.0, {}]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                nested = frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                if nested:
                    if parent is not None and parent[2] is None:
                        parent[2] = {}
                    for key, value in nested.items():
                        _add(st[3], key, value)
                        if parent is not None:
                            _add(parent[2], key, value)
                if record:
                    up = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                    spans[frame[3]] = (frame[3], up, span_name, start, end)

        return traced

    # -- installation ------------------------------------------------------------

    def install(self, lib: dict) -> None:
        """Wrap the layer entry points of the modules in `lib` (name -> module)."""
        poly = lib["polyring"].Polynomial
        deriv = lib["derivation"].Derivation
        span = lib["span"]
        canonical = lib["canonical"]
        reductions = lib["reductions"]
        verify = lib["verify"]
        targets = [
            (poly.__mul__, "polyring.mul", _mul_terms),
            (poly.__add__, "polyring.addsub", None),
            (poly.__sub__, "polyring.addsub", None),
            (poly.__rsub__, "polyring.addsub", None),
            (poly.__neg__, "polyring.addsub", None),
            (poly.partial, "polyring.partial", None),
            (poly.__init__, "polyring.init", None),
            (deriv.bracket, "derivation.bracket", _bracket),
            (deriv.apply, "derivation.apply", None),
            (span.SpanBasis.__init__, "span.basis", _basis),
            (span.SpanBasis.contains, "span.contains", _contains),
            (span.lie_closure, "span.lie_closure", _closure),
            (span.derived_series, "span.series", _series),
            (span.lower_central_series, "span.series", _series),
            (canonical.derived_chain_witness, "canonical.witness", None),
            (canonical.lnd_check, "canonical.lnd_check", None),
            (canonical.membership, "canonical.membership", None),
            (canonical.generators, "canonical.generators", None),
            (lib["grammar"].parse_polynomial, "grammar.parse", None),
            (lib["grammar"].parse_derivation, "grammar.parse", None),
            (lib["polyring"].format_polynomial, "grammar.format", None),
            (lib["derivation"].format_derivation, "grammar.format", None),
            (lib["cli"].main, "cli", None),
        ]
        targets += [(fn, "reductions", None) for fn in _public_callables(reductions)]
        wrappers = {id(fn): (fn, self._wrap(fn, name, after))
                    for fn, name, after in targets}
        for name, fn in vars(verify).items():
            if name.startswith("check_") and inspect.isfunction(fn):
                wrappers[id(fn)] = (fn, self._wrap(fn, "verify", rename=_check_span))
        for namespace in _namespaces(lib):
            for attr, value in list(vars(namespace).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(namespace, attr, entry[1])
                    self._undo.append((namespace, attr, value))

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._undo):
            setattr(namespace, attr, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""

        def get(name, field):
            st = self.stats.get(name)
            if st is None:
                return 0
            if field == "calls":
                return st[0]
            if field == "self_s":
                return st[2]
            if field == "total_s":
                return st[1]
            return st[3].get(field, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        derived = {
            "span.basis.rank_ratio": ratio(get("span.basis", "rank"),
                                           get("span.basis", "rows_in")),
            "span.contains.new_ratio": ratio(get("span.contains", "new"),
                                             get("span.contains", "calls")),
            "span.lie_closure.brackets_per_pair": ratio(
                get("span.lie_closure", "brackets"), get("span.lie_closure", "pairs")),
            # a value is kept exactly when its containment test says "new"
            "canonical.witness.kept_ratio": ratio(get("canonical.witness", "new"),
                                                  get("canonical.witness", "brackets")),
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in derived:
                value = derived[name]
            else:
                layer, field = name.rsplit(".", 1)
                value = get(layer, field)
            out[name] = (value, unit)
        return out

    def write_spans(self, path) -> None:
        """Recorded spans as JSON lines: id, parent, name, start, end (seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start - t0, "end": end - t0}) + "\n")


def _check_span(result) -> str:
    return f"verify.{result.name}"


def _public_callables(module):
    """Public functions and public methods of classes defined in `module`."""
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield member


def _namespaces(lib: dict):
    """Every package module and every class they define."""
    package = lib["package"]
    modules = [package] + [m for m in vars(package).values()
                           if inspect.ismodule(m) and m.__name__.startswith(package.__name__)]
    seen = set()
    for module in modules:
        if id(module) in seen:
            continue
        seen.add(id(module))
        yield module
        for value in list(vars(module).values()):
            if (inspect.isclass(value) and value.__module__ == module.__name__
                    and id(value) not in seen):
                seen.add(id(value))
                yield value
