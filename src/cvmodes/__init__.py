"""cvmodes: Gaussian optical states as covariance matrices over
polarization/OAM-labeled modes, q-plate entanglement distribution, and
separability analysis of every pair and of the listed bipartitions (every
split up to 5 modes; the 1|n-1 and 2|n-2 splits at 6 to 8 modes).
"""

from .core import (
    CIRCULAR_POLARIZATIONS,
    LINEAR_POLARIZATIONS,
    SHOT_NOISE,
    GaussianState,
    ModeLabel,
    ModeRegister,
    StandardFormParams,
    ValidityReport,
    make_standard_form,
    mean_photon_number,
    min_heisenberg_eigenvalue,
    purity,
    reduce,
    reorder,
    standard_form_matrix,
    symplectic_form,
    total_photon_number,
    two_mode_register,
    vacuum_state,
    validate,
)
from .entanglement import (
    Bipartition,
    EntanglementReport,
    EntanglementVerdict,
    Method,
    Status,
    bipartition_scan,
    iterative_separability,
    log_negativity_from_spectrum,
    pairwise_entanglement_map,
    partial_transpose,
    ppt_verdict,
    symplectic_eigenvalues,
)
from .io import load_cov_csv, load_state, save_state
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    distribution_config,
    emit_report,
    reproduce_paper,
    run_pipeline,
)
from .transforms import (
    QPlateSpec,
    SymplecticTransform,
    apply,
    embed_with_vacua,
    identity_transform,
    opo_source,
    phase_rotation,
    qplate_pairing,
    qplate_transform,
    quarter_waveplate_relabel,
    sigma4_closed_form,
)

__version__ = "0.1.0"
