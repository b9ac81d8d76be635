"""End-to-end benchmark of the Gables reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one seeded workload against the program's real
entry points and prints its metrics; see :mod:`perfbench.run`.
"""
