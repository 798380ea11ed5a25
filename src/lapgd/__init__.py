"""Laplacian-weighted gradient descent for coupled resource allocation.

A feasible-by-construction first-order method for minimizing a sum of
private, possibly non-convex agent objectives whose decisions must sum
to a shared demand vector, plus a noisy variant that escapes strict
saddles, optimality certifiers for both first and second order, and
reproducible saddle-escape experiments.

Each public name is imported from the module that defines it, as in
``from lapgd.optimizer import run``. Importing the package loads all six
modules; the command line lives in ``lapgd.cli``, which it does not load.
"""

from . import config, experiments, network, objectives, optimizer, stationarity

__version__ = "0.1.0"
