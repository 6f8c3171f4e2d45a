"""End-to-end and per-layer benchmark of the λ-NIC simulator.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, the metrics and what each
per-layer number is predicted to move.
"""
