"""The paper's contribution: the MMSIM-LCP mixed-cell-height legalizer."""

from repro.core.compaction import compact_rows_and_place, evict_and_place
from repro.core.rebalance import rebalance_rows
from repro.core.legalizer import (
    LegalizationResult,
    LegalizerConfig,
    MMSIMLegalizer,
    PreparedLegalization,
    legalize,
    legalize_incremental,
)
from repro.core.multi import DesignJob, legalize_many
from repro.core.qp_builder import (
    LegalizationQP,
    build_constraints,
    build_legalization_qp,
)
from repro.core.resilience import (
    RUNGS,
    ResilienceConfig,
    RungAttempt,
    ShardEscalation,
    solve_shard_resilient,
)
from repro.core.row_assign import RowAssignment, assign_rows
from repro.core.setup_cache import ReuseCache
from repro.core.state import (
    SolverState,
    StaleWarmStart,
    design_fingerprint,
    load_solver_state,
    save_solver_state,
)
from repro.rows.core_area import InfeasibleAssignment
from repro.core.sharding import (
    Shard,
    ShardedKKT,
    build_shards,
    coupling_components,
    shard_legalization_qp,
    solve_sharded,
)
from repro.core.splitting import (
    LegalizationSplitting,
    SplittingParameters,
    schur_tridiagonal,
    woodbury_h_inverse,
)
from repro.core.subcells import SubcellModel, restore_cells, split_cells
from repro.core.tetris_fix import TetrisFixStats, tetris_allocate

__all__ = [
    "compact_rows_and_place",
    "evict_and_place",
    "rebalance_rows",
    "MMSIMLegalizer",
    "LegalizerConfig",
    "LegalizationResult",
    "PreparedLegalization",
    "legalize",
    "legalize_incremental",
    "DesignJob",
    "legalize_many",
    "assign_rows",
    "RowAssignment",
    "InfeasibleAssignment",
    "ReuseCache",
    "SolverState",
    "StaleWarmStart",
    "design_fingerprint",
    "load_solver_state",
    "save_solver_state",
    "split_cells",
    "restore_cells",
    "SubcellModel",
    "build_legalization_qp",
    "build_constraints",
    "LegalizationQP",
    "LegalizationSplitting",
    "SplittingParameters",
    "woodbury_h_inverse",
    "schur_tridiagonal",
    "Shard",
    "ShardedKKT",
    "build_shards",
    "coupling_components",
    "shard_legalization_qp",
    "solve_sharded",
    "tetris_allocate",
    "TetrisFixStats",
    "RUNGS",
    "ResilienceConfig",
    "RungAttempt",
    "ShardEscalation",
    "solve_shard_resilient",
]
