"""Lexicographic degree bounds for two-bridge knots."""

# Loaded first, in dependency order.  Without a bytecode cache every
# module is compiled at import, which briefly takes 70-90 bytes per
# source byte; compiling the largest (planereduce) before the CLI and
# the curve lab are resident keeps a fresh process's peak memory down.
from . import arith, diagram, enumeration, planereduce, report

__version__ = "0.1.0"
