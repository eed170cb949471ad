"""Numerical checks of Bell/CHSH and Mermin operator algebra, two-photon
coincidence calculations, and de Broglie-Bohm guidance dynamics."""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .errors import NodeSingularityError, NumericalCheckError, UndefinedCorrelationError
from .operators import (
    MeasurementOp,
    commutator,
    dagger,
    expectation,
    hermitian_extremal_eigenvalue,
    ket,
    pauli,
    photon_op,
    photon_projector,
    spin_op,
    tensor,
)
from .chsh import (
    TSIRELSON,
    BellValue,
    ChshSettings,
    bell_operator,
    chsh_value,
    correlation,
    identity_residual,
    photon_pair_state,
    singlet,
    tsirelson_scan,
)
from .mermin import (
    GhzState,
    MerminSettings,
    ghz,
    ghz_expectation_shared,
    mermin_operator,
    mermin_shared_scan,
    mermin_square_residual,
    mermin_value,
    transverse_spin_op,
)
from .lhv import (
    RNG_ALGORITHM,
    ChshEstimate,
    HiddenVariableModel,
    chsh_deterministic_max,
    make_rng,
    mermin_deterministic_max,
    sawtooth_correlation,
    sign_model,
    simulate_chsh_stats,
)
from .fock import (
    MODE_ORDER,
    BeamSplitterSpec,
    FockBasis,
    FockState,
    ModeIndex,
    annihilation,
    coincidence_closed_form,
    coincidence_correlation,
    coincidence_probability,
    creation,
    detector_amplitude_op,
    ou_mandel_state,
    product_state,
    standard_basis,
    vacuum,
)
from .dbb import (
    PhysicalConstants,
    SpinState,
    SpinTrajectory,
    Trajectory,
    TwoParticleWF,
    WavePacket,
    cross_coupling,
    integrate_spin,
    integrate_trajectory,
    packet_overlap,
    psi2_eval,
    velocity_2p,
)

# the public names imported above; the submodules bound as a side effect stay out
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
