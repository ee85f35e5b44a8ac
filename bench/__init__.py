"""End-to-end benchmark of the reproduction, with a per-layer split.

Run ``python -m bench`` from the root of a checkout; see
:mod:`bench.__main__` for the commands and ``bench/README.md`` for the
workloads and metrics.
"""
