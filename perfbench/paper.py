"""Published reference cells the ``twt-paper`` workload is compared with.

Source: S. Hong, S. Depner, T. Manhardt, J. Van Der Lugt, M. Verstraaten,
H. Chafi, "PGX.D: A Fast Distributed Graph Processing Engine", SC '15,
Table 3: exact PageRank on the Twitter graph (TWT), PGX.D on 8 machines,
seconds per iteration (also listed in EXPERIMENTS.md).

The workload runs a scaled stand-in of TWT with every fixed cost scaled
by the same factor (``repro.bench.calibration.scaled_cluster_config``),
so a simulated time ``t`` at scale ``s`` corresponds to ``t / s`` seconds
at paper scale.
"""

from __future__ import annotations

import math
from typing import Mapping

#: TWT' is TWT with node and edge counts multiplied by this factor.
SCALE = 1.0 / 2000.0

#: Table 3, PGX.D on 8 machines, TWT, exact PageRank, seconds/iteration.
TABLE3_PGX8_TWT = {"pull": 1.28, "push": 2.81}


def paper_scale(sim_seconds: float) -> float:
    """Paper-scale equivalent of a simulated time measured at ``SCALE``."""
    return sim_seconds / SCALE


def table3_err(sim_per_iteration: Mapping[str, float]) -> float:
    """Mean ``|log2(ours / paper)|`` over the Table 3 cells, where "ours"
    is the paper-scale per-iteration time of each PageRank variant."""
    errs = [abs(math.log2(paper_scale(sim_per_iteration[v]) / ref))
            for v, ref in TABLE3_PGX8_TWT.items()]
    return sum(errs) / len(errs)
