"""The repository benchmark: four single-process workloads (see README.md)."""
