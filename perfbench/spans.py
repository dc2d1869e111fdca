"""In-memory span tracer wrapped around linewatch's public layer entry points.

The tracer replaces functions and methods of an imported ``linewatch``
from the outside (no library edit), records one span per call as
``[name, start, end, parent_index]`` and a few plain counters, and puts
everything back on ``uninstall``.  Per-layer figures are derived from
the spans after the run.
"""

import collections
import functools
import json
import statistics
import sys
import time
import types

# Banded linear-algebra entry points linewatch.hydraulics may reference,
# with the (factorizations, solves) one call performs.
LINALG_ENTRY_POINTS = {
    "solve_banded": (1, 1),
    "dgbsv": (1, 1),
    "dgbtrf": (1, 0),
    "dgbtrs": (0, 1),
}


class Tracer:
    def __init__(self):
        self.spans = []                      # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self.marks = {}                      # label -> span index
        self.linalg_found = {}               # entry point -> owning module, or None
        self._stack = []
        self._open = collections.Counter()
        self._patches = []                   # (owner, attribute, original)

    # ------------------------------------------------------------ spans

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def _exit(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        idx = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    # ---------------------------------------------------------- patching

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timed(self, orig, name):
        """Wrap ``orig`` in a span; ``name`` is a string or a function of
        the open spans returning one."""
        enter, exit_ = self._enter, self._exit

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = enter(name if isinstance(name, str) else name())
            try:
                return orig(*args, **kwargs)
            finally:
                exit_(idx)
        return traced

    def _wrap_everywhere(self, fn, name):
        """Replace ``fn`` in every loaded linewatch module that references it."""
        wrapper = self._timed(fn, name)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "linewatch" or modname.startswith("linewatch.")):
                continue
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                self._patch(mod, attr, wrapper)

    def install(self):
        import linewatch.balance as balance
        import linewatch.cli as cli
        import linewatch.fluid as fluid
        import linewatch.hydraulics as hydraulics
        import linewatch.network as network
        import linewatch.rtm as rtm
        import linewatch.scenario as scenario
        import linewatch.telemetry as telemetry

        is_open = self._open
        solver = hydraulics.PipeFlowSolver
        self._patch(solver, "advance", self._timed(
            solver.advance,
            lambda: "hydraulics.shadow_advance" if is_open["rtm.observe"] else "hydraulics.plant_advance"))
        self._patch(solver, "steady_state", self._timed(
            solver.steady_state,
            lambda: "hydraulics.locate_steady" if is_open["rtm.locate_leak"] else "hydraulics.init_steady"))
        self._patch(rtm.RtmDetector, "observe", self._observe(rtm.RtmDetector.observe))
        self._patch(rtm.RtmDetector, "locate_leak",
                    self._timed(rtm.RtmDetector.locate_leak, "rtm.locate_leak"))
        self._patch(balance.BalanceDetector, "observe",
                    self._timed(balance.BalanceDetector.observe, "balance.observe"))
        self._patch(telemetry.TelemetryFrame, "reading",
                    self._counted(telemetry.TelemetryFrame.reading, "telemetry.reading"))
        self._patch(scenario.RunReport, "to_json", self._timed(scenario.RunReport.to_json, "cli.write"))

        self._wrap_everywhere(fluid.dP_dT_const_density, "fluid.dP_dT_const_density")
        self._wrap_everywhere(telemetry.sample, "telemetry.sample")
        self._wrap_everywhere(telemetry.plausibility_filter, "telemetry.plausibility_filter")
        self._wrap_everywhere(scenario.load_scenario, "scenario.load_scenario")
        self._wrap_everywhere(scenario.run_scenario, "scenario.run_scenario")
        self._wrap_everywhere(network.discretize, "network.discretize")
        for attr in [a for a in vars(cli) if a.startswith("write_")]:
            self._wrap_everywhere(getattr(cli, attr), "cli.write")

        for entry, per_call in LINALG_ENTRY_POINTS.items():
            owner = self._linalg_owner(hydraulics, entry)
            self.linalg_found[entry] = owner.__name__ if owner is not None else None
            if owner is not None:
                self._patch(owner, entry, self._linalg(getattr(owner, entry), per_call))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @staticmethod
    def _linalg_owner(hydraulics, entry):
        """The object whose attribute ``entry`` hydraulics calls: the module
        itself (``from scipy.linalg import solve_banded``) or a module it
        imported (``from scipy.linalg import lapack``)."""
        if callable(getattr(hydraulics, entry, None)):
            return hydraulics
        for value in vars(hydraulics).values():
            if isinstance(value, types.ModuleType) and callable(getattr(value, entry, None)):
                return value
        return None

    def _linalg(self, orig, per_call):
        traced = self._timed(orig, "hydraulics.linalg")
        counts = self.counts
        factorizations, solves = per_call

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts["hydraulics.linalg.factorizations"] += factorizations
            counts["hydraulics.linalg.solves"] += solves
            return traced(*args, **kwargs)
        return counted

    def _counted(self, orig, name):
        counts = self.counts

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)
        return counted

    def _observe(self, orig):
        """rtm.observe span that also marks the poll whose call declared."""
        enter, exit_, marks = self._enter, self._exit, self.marks

        @functools.wraps(orig)
        def observe(detector, frame):
            declared_before = detector.verdict.declared
            idx = enter("rtm.observe")
            try:
                return orig(detector, frame)
            finally:
                exit_(idx)
                if not declared_before and detector.verdict.declared:
                    marks["rtm.declare_poll"] = idx
        return observe

    # ---------------------------------------------------------- results

    def summary(self):
        """Per span name: its durations and its summed self seconds."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for idx, (name, t0, t1, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"durations": [], "self_s": 0.0})
            entry["durations"].append(t1 - t0)
            entry["self_s"] += (t1 - t0) - child[idx]
        return out

    def layer_metrics(self, root):
        """Per-layer metrics of one traced run whose outer span is ``root``,
        as name -> (value, unit)."""
        summ = self.summary()
        empty = {"durations": [], "self_s": 0.0}
        m = {}

        def get(name):
            return summ.get(name, empty)

        def calls(name):
            m[name + ".calls"] = (len(get(name)["durations"]), "count")

        def total(name):
            m[name + ".s"] = (sum(get(name)["durations"]), "s")

        def self_s(name):
            m[name + ".self_s"] = (get(name)["self_s"], "s")

        def p50_ms(name):
            d = get(name)["durations"]
            m[name + ".p50_ms"] = (1e3 * statistics.median(d) if d else 0.0, "ms")

        for name in ("hydraulics.plant_advance", "hydraulics.shadow_advance",
                     "hydraulics.locate_steady"):
            calls(name)
            p50_ms(name)
            self_s(name)
        calls("hydraulics.init_steady")
        self_s("hydraulics.init_steady")
        for key in ("factorizations", "solves"):
            m["hydraulics.linalg." + key] = (self.counts["hydraulics.linalg." + key], "count")
        total("hydraulics.linalg")
        calls("fluid.dP_dT_const_density")
        total("fluid.dP_dT_const_density")
        calls("rtm.observe")
        p50_ms("rtm.observe")
        m["rtm.observe.tail_ms"] = (1e3 * tail(get("rtm.observe")["durations"])[0], "ms")
        self_s("rtm.observe")
        calls("rtm.locate_leak")
        total("rtm.locate_leak")
        declare = self.marks.get("rtm.declare_poll")
        m["rtm.declare_poll_ms"] = (
            0.0 if declare is None else 1e3 * (self.spans[declare][2] - self.spans[declare][1]),
            "ms")
        calls("telemetry.sample")
        total("telemetry.sample")
        total("telemetry.plausibility_filter")
        m["telemetry.reading.calls"] = (self.counts["telemetry.reading"], "count")
        calls("balance.observe")
        total("balance.observe")
        for name in ("scenario.load_scenario", "network.discretize"):
            m[name + ".ms"] = (1e3 * sum(get(name)["durations"]), "ms")
        self_s("scenario.run_scenario")
        total("cli.write")
        run_s = sum(get(root)["durations"])
        m["trace.run_s"] = (run_s, "s")
        m["trace.accounted_share"] = (1.0 - get(root)["self_s"] / run_s if run_s > 0 else 0.0,
                                      "ratio")
        return m

    def write(self, path):
        """Write the spans as JSON lines: name, start, end (s), parent index."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


TAIL_BEYOND = 10


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it, as
    (value, percentile).  With too few samples for that it is the lowest
    sample, which keeps the figure continuous as the sample count changes."""
    s = sorted(samples)
    if not s:
        return 0.0, 0.0
    idx = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[idx], 100.0 * (idx + 1) / len(s)
