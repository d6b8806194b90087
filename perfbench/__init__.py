"""Outside-in benchmark of the zero-shot cost-model stack.

``python3 perfbench/run.py --workload <name> --seed <n>`` runs one
workload; ``perfbench/README.md`` describes the workloads and metrics.
"""
