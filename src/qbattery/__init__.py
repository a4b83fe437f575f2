"""Work fluctuations of bipartite quantum batteries under random local unitaries.

The library computes exact per-unitary work values, closed-form Haar
statistics, entanglement-dimension (Schmidt-number) witnesses built from
the work variance, and two measurement protocols (noisy two-point
measurement and two-copy coincidence) that estimate the same quantities
with imperfect detectors.  Everything is deterministic given a
(seed, stream) sampler configuration.
"""

from .battery import (
    BatteryHamiltonian,
    SpectralDecomposition,
    battery_hamiltonian,
    gibbs_state,
    ising_battery,
    spectral_decomposition,
    thermal_mixture_stack,
    thermal_mixture_state,
)
from .coincidence import (
    CoincidenceReport,
    avg_coincidence_closed,
    coincidence_bound,
    coincidence_povm,
    mc_coincidence,
)
from .haar import HaarSampler, SamplerConfig, twirl1, twirl2
from .linalg import (
    DensityMatrix,
    partial_trace,
    partial_transpose_min_eig,
    purity,
    sector_lengths,
    swap_operator,
)
from .montecarlo import MomentAccumulator
from .tpm import (
    NoisyPovm,
    TpmVarianceReport,
    TpmVarianceStack,
    TpmWeights,
    energy_labels,
    mc_tpm_statistics,
    noisy_povm,
    tpm_run,
    tpm_variance_closed_form,
    tpm_variance_stack,
    tpm_weights,
)
from .witness import (
    PureStateReport,
    WitnessReport,
    WitnessStack,
    detect_schmidt_number,
    detect_schmidt_number_stack,
    schmidt_t2_cap,
    work_variance_bound,
)
from .workstats import WorkHistogram, WorkStatistics, analytic_work_variance, mc_work_statistics, work

__version__ = "0.1.0"
