"""The repository benchmark: three workloads timed end to end and, in a
separate traced run, layer by layer from outside the engine.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``. See ``perfbench/README.md``.
"""
