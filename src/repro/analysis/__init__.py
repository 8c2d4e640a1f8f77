"""Analysis helpers for the paper's figures.

- :mod:`~repro.analysis.distributions` -- frequency CDFs from CBF
  counter histograms (Fig. 14).
- :mod:`~repro.analysis.timeline` -- windowed hit-ratio / latency
  timelines from experiment results (Fig. 11).
- :mod:`~repro.analysis.tracetool` -- JSONL trace validation,
  summaries and state/level adaptation timelines (Fig. 11 from a
  ``--trace`` file).
- :mod:`~repro.analysis.tables` -- text table formatting matching the
  paper's layout.
"""

from repro.analysis.distributions import frequency_cdf, saturated_fraction
from repro.analysis.tables import format_comparison_table, format_rows
from repro.analysis.timeline import (
    detection_delay,
    resample_timeline,
    timeline_stability,
)
from repro.analysis.tracetool import (
    adaptation_latencies_ns,
    format_trace_summary,
    state_timeline,
    summarize_trace,
    validate_trace,
)

__all__ = [
    "adaptation_latencies_ns",
    "detection_delay",
    "format_comparison_table",
    "format_rows",
    "format_trace_summary",
    "frequency_cdf",
    "resample_timeline",
    "saturated_fraction",
    "state_timeline",
    "summarize_trace",
    "timeline_stability",
    "validate_trace",
]
