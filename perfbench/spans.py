"""Spans around the calls into each `ahtower` module, for the traced run.

Nothing in `ahtower` is edited.  `Tracer.install` rebinds, for the duration
of a traced pass, every module global of the `ahtower` package (and the few
class attributes) that names one of the functions below, so a traced CLI
call follows exactly the path an untraced one does.  Each wrapped call
records a span (name, start, end, parent); `Tracer.uninstall` puts the
original objects back.

A layer's self time is its spans' total duration minus the part covered by
child spans.  Every CLI call is wrapped as `cli.main`, so the self times of
one pass sum to the traced pass's wall time.  A function that no longer
exists is skipped and its metric is dropped.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from collections import Counter
from time import perf_counter_ns

# span name -> (module, attribute) pairs whose calls it covers
FUNCTION_SPANS = {
    "cli.main": [("cli", "main")],
    "rational.json": [("rational", "fraction_to_json"),
                      ("rational", "fraction_from_json"),
                      ("rational", "ints_to_json"),
                      ("rational", "ints_from_json")],
    "sequences.build_tables": [("sequences", "build_tables")],
    "sequences.verify_tables": [("sequences", "verify_tables")],
    "certificates.search_witness": [("certificates", "search_witness")],
    "certificates.verify_witness_json": [("certificates",
                                          "verify_witness_json")],
    "tower.build_connecting_map": [("tower", "build_connecting_map")],
    "tower.verify_tower": [("tower", "verify_tower")],
    "action.check_equivariance": [("action", "check_equivariance")],
    "crossed.check_crossed_sizes": [("crossed", "check_crossed_sizes")],
    "crossed.check_upper_bound_gap": [("crossed", "check_upper_bound_gap")],
    "comparison.chern_min_embedding_rank": [("comparison",
                                             "chern_min_embedding_rank")],
    "diagram.build_diagram_document": [("diagram", "build_diagram_document")],
    # export_diagram's own time is the json.dumps of the diagram document
    "diagram.json": [("diagram", "diagram_to_json_obj"),
                     ("diagram", "diagram_from_json_obj"),
                     ("diagram", "export_diagram")],
    "diagram.render_dot": [("diagram", "render_dot")],
}

# span name -> (class path, method) pairs
METHOD_SPANS = {
    "sequences.tables_json": [("sequences.GrowthTables", "to_json_obj"),
                              ("sequences.GrowthTables", "from_json_obj")],
}

# count name -> (span name whose return value it reads, how)
RETURN_COUNTS = {
    "certificates.ledger_rows": ("certificates.search_witness",
                                 lambda report: len(report.ledger)),
    "tower.arrows_built": ("tower.build_connecting_map",
                           lambda cmap: len(cmap.arrows)),
    "diagram.render_dot_calls": ("diagram.render_dot", lambda _: 1),
}

TIME_METRICS = ["cli.main", "cli.parse", "cli.json",
                *(name for name in FUNCTION_SPANS if name != "cli.main"),
                *METHOD_SPANS]
COUNT_METRICS = [*RETURN_COUNTS, "report.checks", "report.checks_skipped"]


def _resolve(path: str):
    module, _, rest = path.partition(".")
    obj = sys.modules.get(f"ahtower.{module}")
    for part in rest.split(".") if rest else []:
        obj = getattr(obj, part, None)
    return obj


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, from wrapping a no-op."""
    def noop():
        return None
    traced = Tracer().wrap("probe", noop)
    start = perf_counter_ns()
    for _ in range(calls):
        traced()
    middle = perf_counter_ns()
    for _ in range(calls):
        noop()
    end = perf_counter_ns()
    return max(0, (middle - start) - (end - middle)) / calls / 1e9


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.present: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            if count is not None:
                tracer.counts[count[0]] += count[1](result)
            return result
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus child-span coverage, in s."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter[str] = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return {name: ns / 1e9 for name, ns in totals.items()}

    def metrics(self) -> dict[str, float]:
        """Every layer metric present in this build, zero when not called."""
        times = self.self_times()
        out = {f"{name}_s": times.get(name, 0.0)
               for name in TIME_METRICS if name in self.present}
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS
                    if name in self.present})
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([{"name": n, "start_ns": s, "end_ns": e, "parent": p}
                       for n, s, e, p in self.spans], handle)

    # -- installing ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Point every ahtower module global that names ``original`` at
        ``replacement``."""
        for modname, module in list(sys.modules.items()):
            if modname != "ahtower" and not modname.startswith("ahtower."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self) -> None:
        counts_by_span = {span: (name, how)
                          for name, (span, how) in RETURN_COUNTS.items()}
        for name, targets in FUNCTION_SPANS.items():
            for path, attr in targets:
                fn = getattr(_resolve(path), attr, None)
                if fn is None:
                    continue
                self.present.add(name)
                count = counts_by_span.get(name)
                if count is not None:
                    self.present.add(count[0])
                self._rebind(fn, self.wrap(name, fn, count))
        for name, targets in METHOD_SPANS.items():
            for path, attr in targets:
                cls = _resolve(path)
                raw = getattr(cls, "__dict__", {}).get(attr)
                if raw is None:
                    continue
                self.present.add(name)
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self.wrap(name,
                                                               raw.__func__)))
                else:
                    self._set(cls, attr, self.wrap(name, raw))
        self._install_cli()
        self._install_checker()

    def _install_cli(self) -> None:
        cli = sys.modules["ahtower.cli"]
        build_parser = getattr(cli, "build_parser", None)
        if build_parser is not None:
            self.present.add("cli.parse")
            traced_build = self.wrap("cli.parse", build_parser)

            def build_traced_parser(*args, **kwargs):
                parser = traced_build(*args, **kwargs)
                parser.parse_args = self.wrap("cli.parse", parser.parse_args)
                return parser
            self._set(cli, "build_parser", build_traced_parser)
        codec = getattr(cli, "json", None)
        if codec is not None:
            self.present.add("cli.json")
            self._set(cli, "json", types.SimpleNamespace(
                dumps=self.wrap("cli.json", codec.dumps),
                loads=self.wrap("cli.json", codec.loads),
                JSONDecodeError=codec.JSONDecodeError))

    def _install_checker(self) -> None:
        checker = _resolve("report.Checker")
        check = getattr(checker, "__dict__", {}).get("check")
        if check is None:
            return
        self.present.update({"report.checks", "report.checks_skipped"})
        counts = self.counts

        @functools.wraps(check)
        def counted(self_, name, ok, *args, **kwargs):
            counts["report.checks"] += 1
            if "skipped" in name:
                counts["report.checks_skipped"] += 1
            return check(self_, name, ok, *args, **kwargs)
        self._set(checker, "check", counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
