"""Simultaneous randomized benchmarking: simulation and addressability analysis."""

__version__ = "0.1.0"

# eager only for bench/run.py's tracer, which looks up rbaddr.twirl in
# sys.modules after importing rbaddr and rbaddr.cli
from . import twirl  # noqa: F401
