"""Timing loops and output checks of the benchmark; see run.py."""

import gc
import hashlib
import resource
import statistics
import sys
from time import perf_counter

import probes
import speed
import stats
import workloads
from casim import audit, engine, scenario, sweep
from casim import trace as trace_mod


class Bench:
    """Timing loops and output checks for one workload's scenario text."""

    def __init__(self, workload, text):
        self.workload = workload
        self.text = text
        self.attempted = 0
        self.failed = 0
        self.digests = None     # sha256 per run of the first iteration
        self.sim = None         # stats.TraceStats of the first iteration
        self.ser_ops = 0
        self.meter = speed.Meter()

    def time_setup(self, samples, budget_s):
        """Append set-up times (text -> Scenario + Simulator construction)
        to samples: at least one, more while within budget_s seconds."""
        clock = self.meter.clock
        stop = clock() + budget_s
        while True:
            t0 = clock()
            engine.Simulator(scenario.parse_scenario(self.text))
            samples.append(clock() - t0)
            if clock() >= stop:
                return

    def iteration(self):
        """One verdict from the generated text; returns (seconds, per-run
        verdicts, Recorder)."""
        clock = self.meter.clock
        rec = probes.Recorder(clock).install()
        try:
            t0 = clock()
            sc = scenario.parse_scenario(self.text)
            rec.start = clock()
            if self.workload == "contended_2pc":
                res = engine.Simulator(sc).run()
                report = audit.audit_trace(res.trace_text(),
                                           all_nodes=sc.nodes)
                verdicts = [report["ok"]]
            elif self.workload == "crash_sweep":
                verdicts = [r["ok"] for r in sweep.crash_sweep(
                    sc, stride=workloads.CRASH_STRIDE)]
            else:
                verdicts = [r["ok"] for r in sweep.seed_sweep(
                    sc, *workloads.SWEEP_SEEDS)]
            elapsed = clock() - t0
        finally:
            rec.restore()
        return elapsed, verdicts, rec

    def check(self, verdicts, rec):
        """Count every audited run and every run that fails a check."""
        self.attempted += len(verdicts)
        if len(rec.texts) != len(verdicts):
            self._fail("%d audited traces for %d verdicts"
                       % (len(rec.texts), len(verdicts)))
            self.failed += len(verdicts)
            return
        digests = [hashlib.sha256(t.encode()).hexdigest() for t in rec.texts]
        bad = [not ok for ok in verdicts]
        if self.digests is None:
            self.digests = digests
            self.sim = stats.TraceStats()
            for i, text in enumerate(rec.texts):
                events, dumps = trace_mod.parse(text)
                again = trace_mod.Trace()
                again.events = events
                if again.render(dumps) != text:
                    bad[i] = True
                    self._fail("run %d: render -> parse -> render differs" % i)
                self.sim.add(events)
                self.ser_ops += stats.serializability_ops(events)
        elif digests != self.digests:
            for i, d in enumerate(digests):
                if i >= len(self.digests) or d != self.digests[i]:
                    bad[i] = True
            self._fail("trace digests differ from the first iteration")
        for i, ok in enumerate(verdicts):
            if not ok:
                self._fail("run %d: audit failed" % i)
        self.failed += sum(bad)

    @staticmethod
    def _fail(msg):
        sys.stderr.write("check failed: %s\n" % msg)

    def _run_ms(self, rec):
        """Milliseconds of each audited run at reference speed, each
        scaled by the host speed samples taken around it."""
        starts = [rec.start] + rec.audit_end[:-1]
        return [(end - s) * 1000 * self.meter.scale_at(s, end)
                for s, end in zip(starts, rec.audit_end)]

    def end_to_end(self, seconds):
        setup, times, run_ms, raw = [], [], [], []
        events = 0
        start = perf_counter()
        with self.meter:
            self.meter.scale()
            while True:
                t_round = perf_counter()
                round_setup = []
                gc.collect()
                t_setup = self.meter.clock()
                self.time_setup(round_setup, 0.1)
                setup_scale = self.meter.scale_at(t_setup, self.meter.clock())
                setup.extend(t * setup_scale for t in round_setup)
                gc.collect()
                elapsed, verdicts, rec = self.iteration()
                self.check(verdicts, rec)
                run_ms.append(stats.percentile(self._run_ms(rec), 50))
                scale = self.meter.scale()
                times.append(elapsed * scale)
                raw.append(elapsed)
                events = rec.events
                now = perf_counter()
                if now - start + (now - t_round) > seconds:
                    break
        verdict = statistics.median(times)
        metrics = {
            "verdict_s": (verdict, "s"),
            "events_per_s": (events / verdict, "events/s"),
            "run_ms_p50": (statistics.median(run_ms), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        metrics.update(self.sim.end_to_end())
        notes = ["iterations %d, audited runs %d, events per iteration %d, "
                 "set-ups %d"
                 % (len(times), self.attempted, events, len(setup)),
                 "iteration seconds at reference speed "
                 + " ".join("%.3f" % t for t in times),
                 "iteration host seconds " + " ".join("%.3f" % t for t in raw)]
        return metrics, notes

    def per_layer(self, seconds):
        untraced, traced, samples, run_ms = [], [], [], []
        start = perf_counter()
        with self.meter:
            self.meter.scale()
            while True:
                t_round = perf_counter()
                for tracer in (None, probes.Probe(self.meter.clock)):
                    gc.collect()
                    if tracer is not None:
                        tracer.install()
                    try:
                        elapsed, verdicts, rec = self.iteration()
                    finally:
                        if tracer is not None:
                            tracer.restore()
                    self.check(verdicts, rec)
                    p90 = stats.percentile(self._run_ms(rec), 90)
                    scale = self.meter.scale()
                    if tracer is None:
                        untraced.append(elapsed * scale)
                        run_ms.append(p90)
                    else:
                        traced.append(elapsed * scale)
                        samples.append({
                            name: (v * scale if unit == "s" else v, unit)
                            for name, (v, unit) in tracer.metrics().items()})
                now = perf_counter()
                if now - start + (now - t_round) > seconds:
                    break
        metrics = {name: (statistics.median(s[name][0] for s in samples), unit)
                   for name, (_v, unit) in samples[0].items()}
        metrics["sweep.run_ms_p90"] = (statistics.median(run_ms), "ms")
        metrics["audit.serializability_ops"] = (self.ser_ops, "count")
        metrics.update(self.sim.per_layer())
        metrics["tracing.overhead"] = (
            statistics.median(traced) / statistics.median(untraced), "1")
        notes = ["traced seconds at reference speed "
                 + " ".join("%.3f" % t for t in traced),
                 "untraced seconds at reference speed "
                 + " ".join("%.3f" % t for t in untraced)]
        return metrics, notes
