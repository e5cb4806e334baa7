"""Outside-in benchmark of `gctt check` and `gctt normalize`.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Run from the root of a checkout of the repository; the benchmark imports
gctt from `src/`. It is a closed loop with one client: one process, one
thread, calling the public entry `gctt.cli.main(argv)` in-process for one
item after another, each `argv` a `gctt check FILE` or a
`gctt normalize FILE --expr TERM` call over inputs generated from the seed
(see `workloads.py`). Every verdict (exit code, diagnostic kind,
declaration count, printed normal form) is compared with the answer known
from the input's construction.

The machine's speed drifts, so the timed loop also times a fixed
reference kernel (`reference.py`) between items and every 50 ms during
them, and the times it reports are scaled to a machine on which that
kernel takes `reference.NOMINAL_S`. The wall-clock values are printed
beside them.

A run repeats the workload's item list in passes, each in a seeded order,
until `--seconds` have passed, and always finishes the pass it is in.

With `--trace 0` the run prints the end-to-end metrics, one per line with
its unit, and, as its last line, a JSON object with the metrics listed in
BENCHMARK.json under "end_to_end". With `--trace 1` the first pass runs
untraced, to give the tracing overhead, and the following passes run
under the outside-in tracer (`tracer.py`); the JSON then holds the
per-layer metrics, counted per traced pass, and the spans are written to
`perfbench/_work/spans-<workload>.bin`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 9
# The end-to-end metrics but setup_s cover this many passes from the start
# of the timed loop (or all of a shorter run), so that they measure a
# fixed amount of work whatever the speed: gctt's heap grows with every
# pass, and with it the garbage collector's pauses, which make up the
# tail. A 50-second run does this many passes even when the machine is
# in its slow state; the passes after them are checked but not counted.
# The counts are odd, so that an item's median is one of its samples: a
# pause hits some of an item's samples and not others, and the mean of
# the two middle samples jumps when the pauses hit half of them.
TIMED_PASSES = {"corpus": 37, "guarded": 9, "kan_normalize": 21}

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# printed with the others, but not in the JSON: it is 0 on a correct
# program, and `failed`/`attempted` carry it
FAILED_RATIO = ("failed_ratio", "ratio")

PER_LAYER_SPANS = {
    "parser.parse_module": ("calls", "self_s"),
    "syntax.free_names": ("calls", "self_s"),
    "syntax.alpha_canonical": ("calls", "self_s"),
    "syntax.term_str": ("calls", "self_s"),
    "syntax.subst": ("calls", "self_s"),
    "eval.eval_term": ("calls", "self_s"),
    "eval.act": ("calls", "self_s"),
    "eval.comp_v": ("calls", "self_s"),
    "eval.readback": ("calls", "self_s"),
    "eval.canon_later_value": ("calls", "self_s"),
    "eval.dfix_v": ("calls",),
    "conversion.conv": ("calls", "self_s"),
    "conversion.conv_under": ("calls",),
    "typechecker.check_module": ("calls",),
    "typechecker.check": ("calls",),
    "typechecker.infer": ("calls",),
    "cli.load": ("calls",),
}
LAYERS = ("parser", "syntax", "interval", "eval", "conversion",
          "typechecker", "cli")


def per_layer_units() -> dict:
    units = {}
    for span, kinds in PER_LAYER_SPANS.items():
        for kind in kinds:
            units[f"{span}.{kind}"] = "count/pass" if kind == "calls" \
                else "s/pass"
    units.update({
        "parser.tokens": "count/pass",
        "parser.tokens_per_s": "1/s",
        "interval.calls": "count/pass",
        "eval.dfix_v.unfolds": "count/pass",
        "eval.dfix_registry_entries": "count",
        "eval.dfix_registry_growth": "count/pass",
        "conversion.fuel_ticks": "count/pass",
        "conversion.conv.later_calls": "count/pass",
        "conversion.conv.later_s": "s/pass",
        "conversion.conv_under.total_s": "s/pass",
        "conversion.conv_under.true_ratio": "ratio",
        "typechecker.check_module.total_s": "s/pass",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s/pass"
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# Set-up


def import_gctt():
    """A fresh import of gctt from src/, as a process starting it pays."""
    for name in [n for n in sys.modules if n == "gctt" or
                 n.startswith("gctt.")]:
        del sys.modules[name]
    return importlib.import_module("gctt.cli")


def set_up(workload: str, seed: int, rep: int, sampler):
    """Import gctt and generate the seed's inputs. Returns the CLI module,
    the items with their expected verdicts, the work directory and the
    time taken, as (wall seconds, speed-normalised seconds)."""
    out = WORK / f"{workload}-{seed}-{os.getpid()}-{rep}"
    before = reference.timed()
    sampler.begin()
    t0 = time.perf_counter()
    cli = import_gctt()
    workloads.generate(workload, seed, out)
    items = json.loads((out / "expected.json").read_text("utf-8"))
    seconds = time.perf_counter() - t0
    probes, stolen = sampler.end()
    seconds -= stolen
    factor = reference.speed_factor([before, *probes, reference.timed()])
    return cli, items, out, (seconds, seconds * factor)


def set_up_times(workload: str, seed: int, reps: range, sampler) -> list:
    """Times of set-ups whose result is thrown away."""
    times = []
    for rep in reps:
        *_, out, seconds = set_up(workload, seed, rep, sampler)
        shutil.rmtree(out)
        times.append(seconds)
    return times


# ---------------------------------------------------------------------------
# Items and verdicts

_DECLS = re.compile(r": ok \((\d+) declarations\)$")
_KIND = re.compile(r"\[([a-z-]+)\]")


def verdict_matches(expect: dict, code, stdout: str, stderr: str) -> bool:
    if code != expect["exit"]:
        return False
    if "decls" in expect:
        m = _DECLS.search(stdout.strip())
        return m is not None and int(m.group(1)) == expect["decls"]
    if "kind" in expect:
        m = _KIND.search(stderr)
        return m is not None and m.group(1) == expect["kind"]
    return stdout.strip() == expect["nf"]


def run_item(cli, item: dict, workdir: Path, sampler):
    """One `gctt.cli.main` call; returns (seconds, verdict matches, the
    probe times the sampler took during the call). The probes' own time is
    not part of the seconds."""
    argv = [str(workdir / a) if a.endswith(".gctt") else a
            for a in item["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        sampler.begin()
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed item, not a crash
            code = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        probes, stolen = sampler.end()
    ok = verdict_matches(item["expect"], code, out.getvalue(), err.getvalue())
    if not ok:
        print(f"FAILED item {item['id']} ({item['group']}): exit {code!r},"
              f" expected {item['expect']}; stdout {out.getvalue()!r};"
              f" stderr {err.getvalue()[:300]!r}", file=sys.stderr)
    return dt - stolen, ok, probes


class Loop:
    """Passes over the items in seeded orders; collects latencies and, if
    `calibrate`, reference probe times: one before each item, one after
    the last, and those the sampler takes during each item."""

    def __init__(self, cli, items, workdir, seed, sampler, calibrate=False):
        self.cli, self.items, self.workdir = cli, items, workdir
        self.rng = random.Random(f"order:{seed}")
        self.sampler = sampler
        self.calibrate = calibrate
        self.samples = []  # (item, seconds)
        self.refs = []  # probe seconds, refs[i] before samples[i]
        self.inner = []  # probe seconds during samples[i]
        self.failed = 0
        self.passes = 0
        self.rss_by_pass = []

    def one_pass(self, on_item=None):
        order = list(self.items)
        self.rng.shuffle(order)
        for item in order:
            if on_item is not None:
                on_item(item)
            if self.calibrate:
                self.refs.append(reference.timed())
            dt, ok, probes = run_item(self.cli, item, self.workdir,
                                      self.sampler)
            self.samples.append((item, dt))
            self.inner.append(probes)
            self.failed += not ok
        self.passes += 1
        self.rss_by_pass.append(peak_rss_mb())

    def run_for(self, seconds, on_item=None):
        """Whole passes, at least one, until `seconds` have passed; returns
        the elapsed time and the number of passes."""
        t0 = time.perf_counter()
        done = 0
        while done == 0 or time.perf_counter() - t0 < seconds:
            self.one_pass(on_item)
            done += 1
        if self.calibrate:
            self.refs.append(reference.timed())
        return time.perf_counter() - t0, done

    def normalised_latencies(self) -> list:
        """Each item's seconds scaled to a machine on which a probe takes
        `reference.NOMINAL_S`, by the probes just before and after the
        item and those taken during it."""
        return [dt * reference.speed_factor(
                    [self.refs[i], *self.inner[i], self.refs[i + 1]])
                for i, (_, dt) in enumerate(self.samples)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(latencies):
    """The latency at the highest percentile with at least ten samples
    beyond it: (value, percentile, samples beyond). With fewer than eleven
    samples, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


# ---------------------------------------------------------------------------
# Runs


def latency_metrics(samples, latencies):
    """latency_p50_ms, latency_tail_ms and items_per_s of item seconds
    `latencies` (in the order of `samples`), with their notes and each
    item group's median."""
    lat = [dt * 1000.0 for dt in latencies]
    # every item runs once per pass, in groups named after the item
    groups = {}
    for (item, _), ms in zip(samples, lat):
        groups.setdefault(item["group"], []).append(ms)
    item_p50 = {g: statistics.median(v) for g, v in groups.items()}
    value, pct, beyond = tail(lat)
    metrics = {
        # The median over items of each item's median. Item latencies form
        # one cluster per item; the median of the pooled samples can fall
        # in a gap between two clusters, where a few samples move it far.
        "latency_p50_ms": statistics.median(item_p50.values()),
        "latency_tail_ms": value,
        "items_per_s": len(lat) / sum(latencies),
    }
    notes = {
        "latency_p50_ms": f"median of {len(groups)} item medians; pooled"
                          f" median {statistics.median(lat):.3f} ms",
        "latency_tail_ms": f"p{pct:.2f}, {len(lat)} samples, {beyond} beyond",
    }
    return metrics, notes, item_p50


def untraced(workload, seed, seconds, cli, items, workdir, sampler):
    loop = Loop(cli, items, workdir, seed, sampler, calibrate=True)
    elapsed, _ = loop.run_for(seconds)
    passes = min(TIMED_PASSES[workload], loop.passes)
    counted = loop.samples[:passes * len(items)]
    metrics, notes, item_p50 = latency_metrics(
        counted, loop.normalised_latencies()[:len(counted)])
    wall, _, wall_p50 = latency_metrics(counted,
                                        [dt for _, dt in counted])
    metrics["peak_rss_mb"] = loop.rss_by_pass[passes - 1]
    probes = loop.refs + [r for inner in loop.inner for r in inner]
    notes["items_per_s"] = (f"{len(counted)} items, {passes} passes of"
                            f" {len(items)}; the run did {loop.passes}"
                            f" passes in {elapsed:.2f} s, of which reference"
                            f" probes took {sum(probes):.2f} s")
    notes["peak_rss_mb"] = f"after pass {passes}"
    ref_ms = statistics.median(probes) * 1000.0
    detail = [f"reference probes: median {ref_ms:.3f} ms over"
              f" {len(probes)}, {len(probes) - len(loop.refs)} of them"
              f" during items; nominal {reference.NOMINAL_S * 1000.0:g} ms"]
    detail.append("wall clock: " + ", ".join(
        f"{name} {value:.6g}" for name, value in wall.items()))
    detail += [f"group {g}: p50 {p50:.3f} ms, wall clock {wall_p50[g]:.3f}"
               f" ms, over {passes}" for g, p50 in item_p50.items()]
    detail.append("rss_mb_by_pass " + " ".join(
        f"{r:.1f}" for r in loop.rss_by_pass))
    return loop, metrics, notes, detail


def traced(workload, seed, seconds, cli, items, workdir, sampler):
    loop = Loop(cli, items, workdir, seed, sampler)
    t0 = time.perf_counter()
    loop.one_pass()
    untraced_pass = time.perf_counter() - t0
    ev = sys.modules["gctt.eval"]
    dfix_before = len(ev.DFIX_TYPES)
    tr = tracing.Tracer().install()
    item_ids = []
    try:
        elapsed, passes = loop.run_for(
            seconds - untraced_pass, lambda item: item_ids.append(item["id"]))
    finally:
        tr.uninstall()
    tr.analyse(item_ids)
    calls, self_s, outer_s = tr.totals()

    def per_pass(x):
        return x / passes

    m = {}
    for span, kinds in PER_LAYER_SPANS.items():
        for kind in kinds:
            m[f"{span}.{kind}"] = per_pass(
                calls[span] if kind == "calls" else self_s[span])
    parse_self = self_s["parser.parse_module"] + self_s["parser.parse_term"]
    m["parser.tokens"] = per_pass(tr.counts["tokens"])
    m["parser.tokens_per_s"] = tr.counts["tokens"] / parse_self
    m["interval.calls"] = per_pass(calls["interval"])
    m["eval.dfix_v.unfolds"] = per_pass(tr.counts["dfix_unfolds"])
    m["eval.dfix_registry_entries"] = len(ev.DFIX_TYPES)
    m["eval.dfix_registry_growth"] = per_pass(len(ev.DFIX_TYPES)
                                              - dfix_before)
    m["conversion.fuel_ticks"] = per_pass(tr.counts["fuel_ticks"])
    m["conversion.conv.later_calls"] = per_pass(tr.counts["later_calls"])
    m["conversion.conv.later_s"] = per_pass(tr.later_s)
    m["conversion.conv_under.total_s"] = per_pass(
        outer_s["conversion.conv_under"])
    m["conversion.conv_under.true_ratio"] = (
        tr.counts["conv_under_true"] / max(calls["conversion.conv_under"], 1))
    m["typechecker.check_module.total_s"] = per_pass(
        outer_s["typechecker.check_module"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_pass(sum(
            v for name, v in self_s.items()
            if name.split(".")[0] == layer))
    m["trace.overhead_ratio"] = (elapsed / passes) / untraced_pass
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{workload}.bin"
    tr.write(spans)
    notes = {"trace.overhead_ratio": f"{passes} traced passes"}
    detail = [f"tracer self-checks ok: {len(tr.start)} spans over"
              f" {len(item_ids)} items written to {spans.relative_to(ROOT)}"]
    traced_s = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    detail.append("share of traced time: " + ", ".join(
        f"{layer} {m[f'{layer}.self_s'] / traced_s:.1%}" for layer in LAYERS))
    check_s = m["typechecker.check_module.total_s"]
    later_share = m["conversion.conv.later_s"] / check_s
    detail.append(f"conversion.conv.later_s is {later_share:.1%} of"
                  " typechecker.check_module.total_s")
    return loop, m, notes, detail


def report(workload, seed, trace, loop, metrics, units, notes, detail):
    print(f"workload {workload} seed {seed} trace {trace}")
    for line in detail:
        print(f"  {line}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    attempted = len(loop.samples)
    if not trace:
        print(f"{FAILED_RATIO[0]} {loop.failed / attempted:.6g}"
              f" {FAILED_RATIO[1]}  ({loop.failed} of {attempted})")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    code = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], check=False)
            code = code or proc.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gctt" / "cli.py").is_file():
        print(f"error: no gctt sources under {ROOT / 'src'}; run from a"
              " checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    # Set-up runs SETUP_REPS times, half before the timed loop and half
    # after it, so that its median does not hang on one moment of a
    # machine whose speed changes from second to second. The run uses the
    # last set-up before the loop.
    before = SETUP_REPS // 2 + 1
    # The traced run reports no times that need scaling; its sampler never
    # starts the timer and takes no probes.
    sampler = reference.Sampler()
    with contextlib.nullcontext() if args.trace else sampler:
        setup_times = set_up_times(args.workload, args.seed,
                                   range(before - 1), sampler)
        cli, items, workdir, seconds = set_up(args.workload, args.seed,
                                              before - 1, sampler)
        setup_times.append(seconds)
        try:
            run = traced if args.trace else untraced
            loop, metrics, notes, detail = run(
                args.workload, args.seed, args.seconds, cli, items, workdir,
                sampler)
            if args.trace:
                units = per_layer_units()
            else:
                setup_times += set_up_times(args.workload, args.seed,
                                            range(before, SETUP_REPS),
                                            sampler)
                wall_s, setup_s = zip(*setup_times)
                metrics = {"setup_s": statistics.median(setup_s), **metrics}
                notes["setup_s"] = (
                    f"median of {len(setup_times)}, {before} before the"
                    " timed loop and the rest after; wall clock"
                    f" {statistics.median(wall_s):.6g} s")
                units = END_TO_END
        finally:
            shutil.rmtree(workdir)
    report(args.workload, args.seed, args.trace, loop, metrics, units, notes,
           detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
