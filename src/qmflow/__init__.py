"""Markov-flow semigroups: structure maps, extended generators, and checks.

Importing the package sets OPENBLAS_NUM_THREADS and OMP_NUM_THREADS to 1
unless they are already set: a multi-threaded BLAS changes the last digits
of some reported values, and reports are meant to be byte-deterministic.
A library reads the variables when it loads, so numpy's BLAS gets this
default only when qmflow is imported before numpy; scipy's BLAS, which
qmflow loads, gets it unless scipy.linalg was imported first.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"

from .linalg import (
    vectorize, devectorize, apply_superop, sandwich_map, left_mul_map,
    right_mul_map, commutator_map, dissipator_map, matrix_exponential,
    choi_of_map, min_eig, is_psd, hermitian_part, max_abs,
    adjoint_superop_matrix,
)
from .structure import (
    ItoTable, StructureMapSet, check_unital, check_conjugation,
    leibnitz_residual, build_evans_hudson,
)
from .extended import (
    BlockOp2, ExtendedGenerator, build_extended_generator, apply_extended,
    extended_choi_min_eig, conservativity_residual,
    normalization_residual, kappa_residual, generator_cp_min_eig,
    dissipativity_residual_min_eig, delta_map, delta_sq_map, delta_sq_semigroup,
    commutation_residual, resolvent_generator,
)
from .flows import (
    StepFunction, step_inner_product, point_generator, evolution_map,
    flow_matrix_element, block_form, q_bound_check, kernel_cp_residual,
    schur_product_check,
)
from .glauber import (
    LABELS, GlauberConfig, default_constants,
    build_site_operator, build_F_lambda, build_spin_operators, shift_matrix,
    build_glauber_structure_maps,
)
from .serialize import (
    operator_to_obj, operator_from_obj, superop_to_obj, superop_from_obj,
    structure_maps_to_obj, structure_maps_from_obj, step_function_to_obj,
    step_function_from_obj, glauber_config_to_obj, glauber_config_from_obj,
    save_json, load_json,
)
from .suite import (
    DEFAULT_TOLERANCES, RunConfig, CheckRecord, Report, parse_config,
    serialize_config, build_model, rng_for, run_suite, check_cp_rows,
    report_to_json_bytes, report_to_csv, REPORT_SCHEMA, validate_report,
)
