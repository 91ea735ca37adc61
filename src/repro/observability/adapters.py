"""Adapters: the device-launch listener that turns launches into spans.

:class:`DeviceTraceAdapter` implements the ``GpuDevice`` listener
callback and forwards each launch into the unified
:class:`~repro.observability.tracer.Tracer`.  (The ``TinyProfiler``
writes its own region spans once bound to a tracer.)  Totals are not
copied here: the ledger and the devices keep bounded tallies that
:class:`~repro.observability.recorder.RunRecorder` reads once per step.
"""

from __future__ import annotations

from repro.observability.tracer import GPU_STREAM, Tracer


class DeviceTraceAdapter:
    """GpuDevice listener: each launch becomes a kernel span.

    The span is a wall span on the rank's GPU-stream track, ending when
    the device is notified.  Launch totals are not kept here: the run
    recorder reads them from the device tallies once per step.
    """

    def __init__(self, tracer: Tracer, rank: int = 0,
                 stream: int = GPU_STREAM) -> None:
        self.tracer = tracer
        self.rank = rank
        self.stream = stream

    def on_launch(self, device, rec, wall_seconds: float) -> None:
        dur = wall_seconds * 1e6
        self.tracer.complete(rec.name, self.tracer.now_us() - dur, dur,
                             self.rank, self.stream, cat="kernel",
                             args={"points": rec.npoints,
                                   "class": rec.kernel_class})
