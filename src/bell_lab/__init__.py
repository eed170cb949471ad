"""Numerical checks of Bell/CHSH and Mermin operator algebra, two-photon
coincidence calculations, and de Broglie-Bohm guidance dynamics.

The six layer modules are lazy: importing the package puts each one in
``sys.modules`` and on the package, and its code runs on first attribute
access, so a command compiles and runs only the modules it uses.  A public
name is looked up in its module on each access from the package."""

import importlib.util as _util
import os as _os
import sys as _sys

# numpy's OpenBLAS starts a worker thread per core, which spins for about
# 0.13 s of CPU per process; no product here is larger than 240x2 by 2x240, so
# one thread does the same work.  The variable is read when OpenBLAS loads, so
# it is set before the first numpy import, and only if numpy is not loaded
# yet; a value the user set wins.  The lines stay here, not in the CLI entry:
# importing any bell_lab module runs this file first, so they precede every
# numpy import the package makes, for library callers as for the CLI.
if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import NodeSingularityError, NumericalCheckError, UndefinedCorrelationError

_PUBLIC = {
    "operators": ("MeasurementOp", "commutator", "expectation", "hermitian_extremal_eigenvalue", "ket", "tensor"),
    "chsh": ("TSIRELSON", "bell_operator", "chsh_value", "correlation", "identity_residual",
             "photon_pair_state", "singlet", "tsirelson_scan"),
    "mermin": ("ghz", "ghz_expectation_shared", "mermin_operator", "mermin_shared_scan", "mermin_square_residual",
               "mermin_value"),
    "lhv": ("RNG_ALGORITHM", "HiddenVariableModel", "chsh_deterministic_max", "make_rng",
            "mermin_deterministic_max", "sawtooth_correlation", "sign_model", "simulate_chsh_stats"),
    "fock": ("STATES", "coincidence_closed_form", "coincidence_correlation",
             "coincidence_probability", "detector_amplitude_op", "ou_mandel_state", "product_state"),
    "dbb": ("SpinTrajectory", "Trajectory", "TwoParticleWF", "WavePacket", "cross_coupling", "integrate_spin",
            "integrate_trajectory", "packet_overlap", "psi2_eval", "velocity_2p"),
}


def _lazy(layer):
    """Register bell_lab.<layer> in sys.modules and on the package, to run on first attribute access."""
    spec = _util.find_spec(f"{__name__}.{layer}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = globals()[layer] = _sys.modules[spec.name] = _util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# public name -> its module; __getattr__ does not cache, so a binding replaced in its module shows here
_HOME = {name: module for layer, names in _PUBLIC.items() for module in [_lazy(layer)] for name in names}

__all__ = ("NodeSingularityError", "NumericalCheckError", "UndefinedCorrelationError", *_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(_HOME[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
