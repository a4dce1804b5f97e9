"""The repository benchmark: four workloads measured end to end and by layer.

Run it from the repository root::

    python -m bench.run                      # all workloads, 3 interleaved repeats
    python -m bench.run --trace              # plus one traced pass per workload
    python -m bench.run --workload fig6-list-q1024 --seed 3 --seconds 30 --trace 0

See ``bench/README.md`` for the workloads, the metrics and how to read
the results and trace files.
"""
