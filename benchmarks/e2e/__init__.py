"""``backup_e2e`` — the repository's end-to-end benchmark.

Acked host write -> verified backup-site cut, measured on four named
workloads, with a per-layer account from a separate traced run.  See
``README.md`` in this directory; the declared metrics, workloads and
bounds are in ``BENCHMARK.json`` at the repository root.
"""
