"""Numerical simulator of a zero/one-photon travelling-wave teleporter built
from two quantum-scissors stages, with exact CPTP models of lossy beam
splitters and inefficient photon counters, plus a closed-form oracle layer.

Each name is imported from its module (``qscissors.apparatus.run_scissors``,
``qscissors.cli.evaluate_point``); the package root re-exports nothing."""

__version__ = "0.1.0"
