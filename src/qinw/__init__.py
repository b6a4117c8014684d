"""Small-bias INW generator over GF(2^m) with a density-matrix harness
for coin-fed quantum branching programs."""

from .gf2m import (
    CapacityError,
    FieldParams,
    GfElement,
    field_new,
    gf_add,
    gf_mul,
    gf_pow,
    inner_prod_f2,
)
from .epsbias import BiasedSpaceParams, ExtSeed, audit_bias, biased_coord, biased_vector
from .extractor import ExtParams, ext_apply, ext_params_for, ext_seed_pack, ext_seed_unpack
from .inw import (
    InwParams,
    InwSeed,
    Label,
    Move,
    collect_stream,
    cost_model,
    dfs_moves,
    inverse_move,
    inw_coord,
    inw_eval_recursive,
    inw_expand,
    inw_params,
    inw_params_raw,
    inw_stream,
    label_step,
    root_label,
)
from .qsim import (
    BranchingProgram,
    DensityMatrix,
    GateOp,
    QuantumProgram,
    apply_gate,
    bp_run,
    bp_run_avg,
    bp_run_many,
    compile_measurements,
    dm_new,
    hadamard,
    measure,
    output_distribution,
    partial_trace_last,
    qp_run,
    reflect1,
    reset,
    toffoli,
    trace_distance,
    trace_norm,
)
from .harness import (
    FoolReport,
    bench,
    classical_fool_experiment,
    fool_experiment,
    level_experiment,
    parity_program,
    random_branching_program,
    random_classical_program,
    random_quantum_program,
    sample_seeds,
)

__version__ = "0.1.0"
