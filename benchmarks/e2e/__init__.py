"""End-to-end wall-clock benchmark: four workloads, a per-layer budget and
a plain-Python oracle.  See README.md in this directory."""
