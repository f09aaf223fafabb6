"""Directional quantum conditional mutual information for spin chains.

Exact dense simulation of short TFIM/XX chains, quantum instruments as
interventions, the symmetric and asymmetric conditional mutual information,
causal arrival-time scans with velocity fits, analytic light-cone bounds,
and a classical time-series CMI baseline.
"""

from .bounds import (
    DispersionPoint,
    LrEstimate,
    commutator_front_norm,
    dispersion,
    lr_velocity,
    max_group_velocity,
    xx_group_velocity,
)
from .causalscan import (
    ArrivalTable,
    FitResult,
    QcmiSeries,
    ScanConfig,
    TimeGrid,
    arrival_scan,
    arrival_time,
    fit_velocity,
    initial_ket,
    qcmi_time_series,
)
from .ccmi import (
    JointDistribution,
    SeriesEmbedding,
    ccmi_asymmetric_series,
    ccmi_symmetric,
    equiquantal_bins,
    shannon_entropy,
    surrogate_baseline,
)
from .exceptions import (
    DegenerateMeasurement,
    DegenerateSeries,
    EmptyConditioner,
    IncompleteInstrument,
    InsufficientData,
    InvalidInput,
    NotPositiveSemidefinite,
    NumericalInstability,
    QcausalError,
)
from .infomeasures import (
    Partition,
    asymmetric_qcmi,
    mutual_information,
    mutual_information_sites,
    symmetric_qcmi,
)
from .instrument import (
    Branch,
    Instrument,
    apply_instrument,
    projective_z_instrument,
    validate_instrument,
)
from .qstate import (
    MAX_SITES,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    DensityMatrixReport,
    Ket,
    basis_index,
    basis_ket,
    embed_on_sites,
    embed_operator,
    ghz_state,
    partial_trace,
    validate_density_matrix,
    von_neumann_entropy,
)
from .spinchain import (
    ChainModel,
    GroundState,
    Hamiltonian,
    Propagator,
    build_model,
    evolve,
    evolve_ket,
    ground_state,
    propagator,
    total_sigma_z,
)

__version__ = "0.1.0"
