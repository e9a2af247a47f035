"""The repository's benchmark: seeded cluster lifecycles (see run.py)."""
