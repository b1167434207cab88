"""End-to-end benchmark: four workloads, end-to-end metrics, a traced
per-layer table.  See README.md and ``run.py``."""
