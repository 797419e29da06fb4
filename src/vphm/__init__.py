"""Battery end-of-discharge voltage prognostics: reduced-order physics
simulation, probabilistic error correction, baselines, scoring and
health-state diagnostics."""

__version__ = "0.1.0"


class InputError(ValueError):
    """Bad input from outside the program (the command line exits 2)."""
