"""Golden values pinning the sampling contract: (seed, stream, chunk) -> samples.

The numbers were recorded from the implementation and must not move unless
the reproducibility contract is changed on purpose.
"""

import numpy as np

from qbattery.battery import gibbs_state, ising_battery, thermal_mixture_state
from qbattery.haar import DEFAULT_CHUNK, SamplerConfig, haar_unitary
from qbattery.workstats import mc_work_statistics

FIRST_UNITARY_D3_SEED20240901_STREAM2 = np.array(
    [
        [
            0.43638043941528526 + 0.3128568634044298j,
            0.27207741876191527 - 0.20982889638983312j,
            -0.3544471916993931 - 0.6841093449533899j,
        ],
        [
            0.11128168006457453 + 0.8330841017489333j,
            -0.23600758522817225 + 0.041332655480675884j,
            -0.19361949910050258 + 0.4457474486398456j,
        ],
        [
            0.006145698098551358 + 0.07240298755247714j,
            0.26503995077790704 - 0.8684996075053837j,
            0.34101913456652416 + 0.2321384153958481j,
        ],
    ]
)
MC_WORK_MEAN_N1000_SEED7_STREAM1 = -0.8357497109355763
MC_WORK_VARIANCE_N1000_SEED7_STREAM1 = 0.07436027663230564


def test_first_haar_unitary_is_pinned():
    u = haar_unitary(SamplerConfig(d=3, seed=20240901, stream=2))
    np.testing.assert_allclose(u, FIRST_UNITARY_D3_SEED20240901_STREAM2, rtol=0, atol=1e-12)


def test_mc_work_statistics_is_pinned():
    assert DEFAULT_CHUNK == 4096  # the chunk the pinned run was drawn with
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    rho = thermal_mixture_state(0.96, gibbs_state(h.ha, 1.5), gibbs_state(h.hb, 1.5))
    stats = mc_work_statistics(rho, h, 1000, SamplerConfig(d=4, seed=7, stream=1))
    assert abs(stats.mean - MC_WORK_MEAN_N1000_SEED7_STREAM1) < 1e-12
    assert abs(stats.variance - MC_WORK_VARIANCE_N1000_SEED7_STREAM1) < 1e-12
