"""Workload substrate (paper Table I).

Page-granular access-trace generators standing in for the paper's
three application suites (see DESIGN.md for the substitution
rationale):

- :mod:`~repro.workloads.cachelib` -- CacheLib/cachebench CDN and
  social-graph analogues: Zipfian item popularity, item-size
  distributions, GET/SET mix, churn and mid-run distribution shift.
- :mod:`~repro.workloads.gap` -- real BC/BFS/CC kernels over a
  Kronecker (R-MAT) graph in CSR form, instrumented to emit page
  traces.
- :mod:`~repro.workloads.xgboost_like` -- gradient-boosted-tree
  training access pattern (per-round column scans + hot gradient and
  histogram state).
"""

from repro.workloads.cachelib import CacheLibWorkload, CDN_PROFILE, SOCIAL_PROFILE
from repro.workloads.gap import GapWorkload
from repro.workloads.kronecker import CSRGraph, generate_kronecker
from repro.workloads.spec import Workload
from repro.workloads.trace import SyntheticZipfWorkload
from repro.workloads.xgboost_like import XGBoostWorkload
from repro.workloads.zipfian import ZipfianSampler

__all__ = [
    "CacheLibWorkload",
    "CDN_PROFILE",
    "CSRGraph",
    "GapWorkload",
    "SOCIAL_PROFILE",
    "SyntheticZipfWorkload",
    "Workload",
    "XGBoostWorkload",
    "ZipfianSampler",
    "generate_kronecker",
]
