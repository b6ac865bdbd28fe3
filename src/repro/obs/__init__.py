"""repro.obs — observability for the discrete-event serving stack.

The serving layer answers *what* a deployment sustains (QPS, p99,
shed rate); this package answers *why*:

* :mod:`repro.obs.trace` — a request-span tracer over the event
  kernel: per-request lifecycle spans (arrival → admission / shed /
  cache / coalesce → batch membership → per-stage device occupancy →
  completion) plus kernel-level instants (batch deadlines, epoch
  ticks, migration commits), exported as Chrome trace-event JSON that
  loads directly in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  The default :class:`~repro.obs.trace.NullTracer`
  is a no-op proven to leave the serving stack's pinned parity digests
  byte-identical.
* :mod:`repro.obs.windows` — a windowed metrics registry: counters,
  gauges, histograms and busy intervals closed on simulated
  *event-time* windows, turning the end-of-run scalar report into time
  series (queue depth, per-device utilization, p99-within-window,
  shed and hit rates).

Everything here is observe-only: tracers and window registries read
values the frontend already computed and never feed back into
scheduling, routing or timing — observability is zero-perturbation by
construction, and the parity suite proves it.

How fast the simulator itself runs is measured outside the package, by
``benchmarks/e2e`` (served requests per calibrated host-second, with a
per-layer time table under ``--trace 1``).
"""

from repro.obs.trace import NullTracer, SpanTracer, Tracer
from repro.obs.windows import WindowedMetrics

__all__ = [
    "NullTracer",
    "SpanTracer",
    "Tracer",
    "WindowedMetrics",
]
