"""Contraction geometry of coarse-graining channels on quantum spin systems.

The package computes how collective fluctuation observables contract under
channels that mix depolarizing noise, permutation averaging and lattice
diffusion: dense finite-size spectra, exact closed forms on symmetric
sectors, their bosonic large-n limits, and ring-lattice regularizations of
smoothed fluctuation fields.
"""

from .channels import (
    Channel,
    ComposedChannel,
    DepolarizingChannel,
    HomogeneousCoarseGraining,
    PermutationAverage,
    ProductChannel,
    SuperoperatorChannel,
    SwapDiffusion,
    homogeneous_coarse_graining,
)
from .errors import ConfigError, DimensionBudgetError, FlabError, NumericalError
from .focklimit import (
    FockBlock,
    SingleParticleSpace,
    beta_bound_decreasing,
    beta_bound_supremum,
    beta_bound_test,
    beta_bound_value,
    clt_convergence,
    depolarizing_fock_setup,
    finite_limit_comparison,
    finite_n_inner,
    fock_block_spectrum,
    generating_overlap,
    klocal_decay_check,
    limiting_inner,
    permanent,
    symmetric_sector_spectrum,
    vertex_overlap,
)
from .geometry import (
    ContractionSpectrum,
    GnsSpace,
    bures_inner,
    bures_norm,
    channel_pairing_matrix,
    contraction_spectrum,
    gns_build,
    gns_inner,
    omega_apply,
    omega_inverse_apply,
    pushforward_norm,
    symmetric_sector_dense_spectrum,
    whiten_psd,
)
from .lattice import (
    BandlimitedField,
    ContinuumField,
    RingLattice,
    continuum_inner_convergence,
    dispersion_bound,
    high_momentum_suppression_probe,
    mode_contractions,
    smoother_apply,
    swap_factorization_probe,
)
from .operators import (
    DensityMatrix,
    QuditSystem,
    basis_pure_density,
    factor_product_state,
    gell_mann_basis,
    maximally_mixed_density,
    permute_sites,
    product_density,
    pure_state_density,
    reduced_density,
    single_site_zero_mean_basis,
    symmetric_klocal_basis,
    symmetric_word_operator,
    symmetric_words,
)
from .reporting import Report
from .sampling import (
    haar_unitary,
    random_cptp_channel,
    random_positive_density,
    random_zero_mean_hermitian,
    task_rng,
)

__version__ = "0.1.0"
