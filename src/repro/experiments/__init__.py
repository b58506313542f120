"""Per-figure/table experiment modules and the registry.

Modules load on first import (``from repro.experiments import fig3``), so
one module, or the grid tables of :mod:`repro.experiments.sweeps`, does
not pay for the rest.
"""


def __getattr__(name):
    # Load the registry on first use; it imports no experiment module
    # until that experiment runs.
    if name in ("REGISTRY", "Experiment"):
        from repro.experiments import registry
        return getattr(registry, name)
    raise AttributeError(name)
