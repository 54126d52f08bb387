"""1D attraction-repulsion Wasserstein gradient flow in quantile coordinates."""

from .dynamics import (
    FlowState,
    IntegratorConfig,
    MonotonicityError,
    Trajectory,
    closed_form_q2,
    simulate,
)
from .energetics import (
    EnergyReport,
    XiGrid,
    dissipation,
    energy,
    energy_and_velocity,
    energy_balance,
    fourier_energy,
    moment_certificate,
)
from .kernels import AttractionPotential, Exponents, attraction_U
from .measures import (
    InverseCDF,
    MassQuadrature,
    ReferenceProfile,
    moment,
    sample_profile,
    uniform_state,
    wasserstein,
)
from .particles import discrete_energy, particle_rhs
from .steady import SteadyState, shifted_profile_mlt1, steady_qr1, steady_residual

__version__ = "0.1.0"
