"""Exact solvers for the railway network design problem under timetable
constraints: expansion-cost-minimal line upgrades plus train routings."""

# The pure-Python engine is the only one; the benchmark records this name.
BACKEND = "python"

__version__ = "0.1.0"
__all__ = ["BACKEND", "__version__"]
