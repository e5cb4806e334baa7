"""Outside-in tracer for gctt: wraps public functions of each layer.

The tracer replaces each listed function by a wrapper in every `gctt.*`
module namespace that refers to it (many are `from ... import`-ed into
other modules), and each listed method on its class. A wrapper records a
span (name, start, end, parent) in flat arrays; nothing is written until
`write` is called at the end of the run. The item a span belongs to is the
item of its root span, and the root spans are the `gctt.cli.main` calls the
benchmark makes, in order.

Counters that need no span (tokens, fuel ticks, neutral comparisons, later
comparisons, `dfix` unfoldings, `conv_under` outcomes) are kept next to the
spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# span name -> (module, attribute path) of each function it covers
SPANNED = {
    "cli.main": [("gctt.cli", "main")],
    "cli.load": [("gctt.cli", "Loader.load")],
    "parser.parse_module": [("gctt.parser", "parse_module")],
    "parser.parse_term": [("gctt.parser", "parse_term"),
                          ("gctt.parser", "parse_interval")],
    "syntax.free_names": [("gctt.syntax", "free_names")],
    "syntax.alpha_canonical": [("gctt.syntax", "alpha_canonical")],
    "syntax.term_str": [("gctt.syntax", "term_str")],
    "syntax.subst": [("gctt.syntax", "subst_term"),
                     ("gctt.syntax", "subst_terms"),
                     ("gctt.syntax", "subst_interval")],
    "eval.eval_term": [("gctt.eval", "eval_term")],
    "eval.act": [("gctt.eval", "act")],
    "eval.comp_v": [("gctt.eval", "comp_v")],
    "eval.readback": [("gctt.eval", "readback"),
                      ("gctt.eval", "readback_value"),
                      ("gctt.eval", "readback_neutral")],
    "eval.canon_later_value": [("gctt.eval", "canon_later_value")],
    "eval.dfix_v": [("gctt.eval", "dfix_v")],
    "conversion.conv": [("gctt.conversion", "conv")],
    "conversion.conv_under": [("gctt.conversion", "conv_under")],
    "typechecker.check_module": [("gctt.typechecker", "Checker.check_module")],
    "typechecker.check": [("gctt.typechecker", "Checker.check")],
    "typechecker.infer": [("gctt.typechecker", "Checker.infer")],
}
# every public dm_*/face_* function of gctt.interval is one "interval" span
INTERVAL_PREFIXES = ("dm_", "face_")
ROOT = "cli.main"


def _resolve(module, path):
    owner = module
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class TracerError(AssertionError):
    """A self-check of the tracer failed; its numbers cannot be used."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {"tokens": 0, "fuel_ticks": 0, "conv_neutral": 0,
                       "later_calls": 0, "dfix_unfolds": 0,
                       "conv_under_true": 0}
        self.later_s = 0.0
        self._later_depth = 0
        self._patches = []  # (owner, attribute, original, had_own_attr)
        self._originals = {}  # id(original) -> original

    # -- installing -------------------------------------------------------

    def install(self):
        gctt = {name: mod for name, mod in sys.modules.items()
                if name == "gctt" or name.startswith("gctt.")}
        ev, conv = gctt["gctt.eval"], gctt["gctt.conversion"]
        targets = dict(SPANNED)
        interval = gctt["gctt.interval"]
        targets["interval"] = [
            ("gctt.interval", name) for name, obj in vars(interval).items()
            if name.startswith(INTERVAL_PREFIXES) and callable(obj)
            and getattr(obj, "__module__", None) == "gctt.interval"
        ]
        for span, places in targets.items():
            nid = self._name_id(span)
            for modname, path in places:
                owner, attr = _resolve(gctt[modname], path)
                fn = getattr(owner, attr)
                if span == "conversion.conv":
                    wrapper = self._conv_wrapper(nid, fn, (ev.VLaterT, ev.VNext))
                elif span == "conversion.conv_under":
                    wrapper = self._counting_span(nid, fn, "conv_under_true",
                                                  lambda r: r is True)
                elif span == "eval.dfix_v":
                    wrapper = self._counting_span(
                        nid, fn, "dfix_unfolds",
                        lambda r, v=ev.VNext: isinstance(r, v))
                else:
                    wrapper = self._span(nid, fn)
                self._replace(gctt, owner, attr, fn, wrapper)
        tokenize = gctt["gctt.parser"].tokenize
        self._replace(gctt, gctt["gctt.parser"], "tokenize", tokenize,
                      self._counter(tokenize, "tokens", len))
        neutral = conv._conv_neutral
        self._replace(gctt, conv, "_conv_neutral", neutral,
                      self._counter(neutral, "conv_neutral"))
        # the fuel object is shared by conversion and typechecker; counting
        # its ticks on the instance covers both
        fuel = conv.FUEL
        self._patches.append((fuel, "tick", fuel.tick, False))
        fuel.tick = self._counter(fuel.tick, "fuel_ticks")
        self._check_no_unwrapped(gctt)
        return self

    def uninstall(self):
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _replace(self, gctt, owner, attr, fn, wrapper):
        """Point every reference to `fn` in gctt module namespaces (and the
        attribute `attr` of a class owner) at `wrapper`."""
        self._originals[id(fn)] = fn
        if isinstance(owner, type):
            self._patches.append((owner, attr, fn, True))
            setattr(owner, attr, wrapper)
            return
        for mod in gctt.values():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, name, fn, True))
                    setattr(mod, name, wrapper)

    def _check_no_unwrapped(self, gctt):
        for mod in gctt.values():
            spaces = [(mod.__name__, vars(mod))]
            spaces += [(f"{mod.__name__}.{v.__name__}", vars(v))
                       for v in vars(mod).values()
                       if isinstance(v, type) and v.__module__ == mod.__name__]
            for where, space in spaces:
                for name, value in space.items():
                    if self._originals.get(id(value), self) is value:
                        raise TracerError(
                            f"{where}.{name} still refers to the unwrapped"
                            f" {value.__qualname__}")

    # -- wrappers ---------------------------------------------------------

    def _span(self, nid, fn):
        span_name, parent, start, end = (self.span_name, self.parent,
                                         self.start, self.end)
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_span(self, nid, fn, counter, hit):
        counts = self.counts
        inner = self._span(nid, fn)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            if hit(result):
                counts[counter] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _conv_wrapper(self, nid, fn, later_types):
        """`conv` span that also counts comparisons where either side is a
        later type or `next`, and times the outermost of them."""
        inner = self._span(nid, fn)
        counts, clock = self.counts, time.perf_counter

        def wrapper(used, a, b, *rest, **kwargs):
            if not (isinstance(a, later_types) or isinstance(b, later_types)):
                return inner(used, a, b, *rest, **kwargs)
            counts["later_calls"] += 1
            self._later_depth += 1
            t0 = clock()
            try:
                return inner(used, a, b, *rest, **kwargs)
            finally:
                self._later_depth -= 1
                if self._later_depth == 0:
                    self.later_s += clock() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, counter, amount=None):
        counts = self.counts

        if amount is None:
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[counter] += amount(result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ---------------------------------------------------------

    def analyse(self, item_ids):
        """Self time per span, the call (root span) each span belongs to,
        and the tracer's self-checks. `item_ids` lists the benchmark item of
        each root span in call order."""
        n = len(self.start)
        if len(self.stack) != 1:
            raise TracerError("spans still open at the end of the run")
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * n))
        call = array("i", bytes(4 * n))
        roots = []
        root_id = self.name_ids[ROOT]
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                if self.span_name[i] != root_id:
                    raise TracerError(f"root span {self.names[self.span_name[i]]}"
                                      " is not a gctt.cli.main call")
                call[i] = len(roots)
                roots.append(i)
                continue
            if not (p < i and self.start[p] <= self.start[i]
                    and self.end[i] <= self.end[p]):
                raise TracerError(f"span {i} does not nest in its parent {p}")
            child[p] += dur[i]
            call[i] = call[p]
        if len(roots) != len(item_ids):
            raise TracerError(f"{len(roots)} root spans for {len(item_ids)}"
                              " traced items")
        self_s = array("d", (d - c for d, c in zip(dur, child)))
        per_call = [0.0] * len(roots)
        for i in range(n):
            per_call[call[i]] += self_s[i]
        for k, r in enumerate(roots):
            if abs(per_call[k] - dur[r]) > 1e-9 + 1e-9 * dur[r]:
                raise TracerError(f"item {item_ids[k]}: self times sum to"
                                  f" {per_call[k]} s, root span is {dur[r]} s")
        calls = self.counts["fuel_ticks"]
        conv_calls = self.span_name.tolist().count(
            self.name_ids["conversion.conv"])
        if calls != conv_calls + self.counts["conv_neutral"]:
            raise TracerError(
                f"{calls} fuel ticks but {conv_calls} conv and"
                f" {self.counts['conv_neutral']} neutral comparisons")
        self.call = call
        self.item_ids = item_ids
        self.self_s = self_s
        self.dur = dur
        return self

    def totals(self):
        """Per span name: calls, self time, and inclusive time of the spans
        with no ancestor of the same name."""
        calls = {name: 0 for name in self.names}
        self_s = dict.fromkeys(self.names, 0.0)
        outer_s = dict.fromkeys(self.names, 0.0)
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += self.self_s[i]
        for name in ("typechecker.check_module", "conversion.conv_under"):
            nid = self.name_ids[name]
            for i, sid in enumerate(self.span_name):
                if sid != nid:
                    continue
                p = self.parent[i]
                while p >= 0 and self.span_name[p] != nid:
                    p = self.parent[p]
                if p < 0:
                    outer_s[name] += self.dur[i]
        return calls, self_s, outer_s

    def write(self, path: Path):
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "count": len(self.start),
                  # "call" is the index of the root span; item_ids maps it to
                  # the benchmark item that call ran
                  "item_ids": self.item_ids,
                  "arrays": [["name", "i"], ["parent", "i"], ["call", "i"],
                             ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.parent, self.call, self.start,
                        self.end):
                arr.tofile(f)


def load_spans(path: Path):
    """Read a file written by `Tracer.write`: (names, {field: array})."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        out = {}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(f, header["count"])
            out[field] = arr
    return header["names"], out
