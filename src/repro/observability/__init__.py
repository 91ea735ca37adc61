"""Unified observability: one event model over the accounting sources.

The paper's evaluation is an observability exercise — TinyProfiler region
decompositions (Figs. 6-7), kernel-launch accounting for the roofline
(Figs. 3-4), and message-volume breakdowns of FillPatch.  This package
unifies the collectors behind one event model:

- :class:`~repro.observability.tracer.Tracer` — nested spans carrying wall
  *or* charged (simulated-Summit) time on rank/stream tracks, exported as
  Chrome trace-event JSON (loadable in Perfetto / chrome://tracing);
- :class:`~repro.observability.metrics.MetricsRegistry` — counters, gauges
  and histograms sampled once per timestep into a JSONL time series;
- :mod:`~repro.observability.adapters` — the listener that turns device
  launches into tracer spans (a bound ``TinyProfiler`` writes its own
  region spans);
- :mod:`~repro.observability.perfscope` — the runtime's per-task record
  and the overlap/lifecycle attribution computed from it;
- :class:`~repro.observability.recorder.RunRecorder` — wires a run to the
  tracer, samples the ``CommLedger`` and device tallies into the registry
  once per step, and writes the artifacts (``trace.json``,
  ``metrics.jsonl``);
- :mod:`~repro.observability.report` — the run-report CLI
  (``python -m repro.report <run_dir>``).
"""

from repro.observability.adapters import DeviceTraceAdapter
from repro.observability.metrics import MetricsRegistry
from repro.observability.recorder import RunRecorder
from repro.observability.tracer import (
    Tracer,
    load_chrome_trace,
    validate_chrome_trace,
)

__all__ = [
    "Tracer",
    "MetricsRegistry",
    "RunRecorder",
    "DeviceTraceAdapter",
    "load_chrome_trace",
    "validate_chrome_trace",
]
