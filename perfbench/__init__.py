"""Benchmark for the pml package: workloads, output checks and a span tracer.

Run it with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md here.
"""
