"""The repo's performance benchmark: five workloads, two clocks.

Not the paper-figure suite (that is ``benchmarks/``).  See
``bench/README.md`` for the workloads, the metrics and how to run them.
"""
