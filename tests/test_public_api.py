"""Public-surface guard: the exported names of the package and of each layer.

A change that drops, renames or adds a public name must say so here, so no
merge or refactor can change the surface silently.
"""

import importlib
import inspect

import numpy as np
import pytest

import distillery
from distillery.errors import InvalidFilterError
from distillery.locc import KrausChannel, LocalFilter

PACKAGE_ALL = [
    "BellIndexVector",
    "BellProbs",
    "CarveReport",
    "DensityOperator",
    "DistilleryError",
    "FailureBound",
    "HashingTrialResult",
    "KrausChannel",
    "LocalFilter",
    "MissEstimate",
    "ProjectionWitness",
    "PureState",
    "RecurrenceTrace",
    "SelectiveOutcome",
    "SourceDist",
    "TwoQubitDiagnostics",
    "UnnormalizedOperator",
    "YieldPlan",
    "apply_channel",
    "apply_selective",
    "bell_probs_from_density",
    "bell_state",
    "carve_pairs",
    "density_from_bell_probs",
    "distill_two_qubit",
    "failure_bound",
    "fidelity_pure",
    "fully_entangled_fraction",
    "is_typical",
    "iterate_to_target",
    "max_entangled",
    "net_rate",
    "parity",
    "partial_trace",
    "partial_transpose",
    "plan_yield",
    "postselect_compose",
    "project_to_qubits",
    "purified_fidelity",
    "purify_step_exact",
    "round_update",
    "run_hashing_trial",
    "search_projection_witness",
    "shannon_entropy",
    "state_from_json",
    "state_to_json",
    "step_success_prob",
    "support_projector",
    "tensor_product",
    "trace_norm_distance",
    "twirl",
    "twirl_unitaries",
    "two_qubit_diagnostics",
    "typicality_miss_estimate",
    "von_neumann_entropy",
    "werner",
    "werner_probs",
]

LAYER_ALL = {
    "qstate": [
        "HERMITICITY_TOL",
        "TRACE_TOL",
        "EIGENVALUE_FLOOR",
        "DensityOperator",
        "UnnormalizedOperator",
        "PureState",
        "max_side_dim",
        "tensor_product",
        "partial_trace",
        "partial_transpose",
        "trace_norm_distance",
        "fidelity_pure",
        "von_neumann_entropy",
        "max_entangled",
        "format_real",
        "state_to_json",
        "state_from_json",
    ],
    "bell": [
        "BELL_LABELS",
        "BellProbs",
        "TwoQubitDiagnostics",
        "ProjectionWitness",
        "bell_vector",
        "bell_state",
        "bell_basis_matrix",
        "magic_basis_matrix",
        "werner_probs",
        "werner",
        "twirl",
        "twirl_unitaries",
        "bell_probs_from_density",
        "density_from_bell_probs",
        "fully_entangled_fraction",
        "two_qubit_diagnostics",
        "project_to_qubits",
        "search_projection_witness",
    ],
    "locc": [
        "COMPLETENESS_TOL",
        "PRODUCT_FORM_TOL",
        "ZERO_PROBABILITY_TOL",
        "KrausChannel",
        "LocalFilter",
        "SelectiveOutcome",
        "CarveReport",
        "apply_channel",
        "apply_selective",
        "postselect_compose",
        "support_projector",
        "carve_pairs",
        "product_factor_singular_values",
        "channel_to_json",
        "channel_from_json",
    ],
    "recurrence": [
        "MIN_STEP_SUCCESS_PROB",
        "RecurrenceTrace",
        "purified_fidelity",
        "step_success_prob",
        "purify_step_exact",
        "iterate_to_target",
        "distill_two_qubit",
        "align_to_phi_plus",
    ],
    "hashing": [
        "DEFAULT_DECODER_BUDGET",
        "SourceDist",
        "BellIndexVector",
        "YieldPlan",
        "HashingTrialResult",
        "FailureBound",
        "MissEstimate",
        "shannon_entropy",
        "is_typical",
        "parity",
        "round_update",
        "plan_yield",
        "run_hashing_trial",
        "failure_bound",
        "typicality_miss_estimate",
        "net_rate",
        "enumerate_typical",
    ],
    "sampling": [
        "haar_unitary",
        "random_pure_state",
        "random_density_operator",
        "random_separable",
    ],
    "errors": [
        "DistilleryError",
        "DimensionMismatchError",
        "DimensionCapError",
        "InvalidStateError",
        "InvalidChannelError",
        "InvalidFilterError",
        "ZeroProbabilityError",
        "NotDistillableError",
        "UnreachableTargetError",
        "MaxStepsExceededError",
        "NothingToCarveError",
        "EntropyTooHighError",
        "DecoderBudgetError",
        "InvalidDistributionError",
        "FileAccessError",
    ],
}


def test_package_exports_are_pinned():
    assert distillery.__all__ == PACKAGE_ALL
    for name in PACKAGE_ALL:
        assert hasattr(distillery, name), name


@pytest.mark.parametrize("layer", sorted(LAYER_ALL))
def test_layer_exports_are_pinned(layer):
    module = importlib.import_module(f"distillery.{layer}")
    assert module.__all__ == LAYER_ALL[layer]
    for name in module.__all__:
        assert hasattr(module, name), name


def test_local_filter_surface():
    params = inspect.signature(LocalFilter).parameters.values()
    empty = inspect.Parameter.empty
    assert [(p.name, p.default) for p in params] == [
        ("a_op", empty),
        ("b_op", empty),
        ("normalized", True),
    ]
    f = LocalFilter(np.eye(2), np.eye(3), normalized=False)
    assert isinstance(f, KrausChannel)
    assert f.normalized is False
    assert np.array_equal(f.a_op, np.eye(2)) and np.array_equal(f.b_op, np.eye(3))
    with pytest.raises(InvalidFilterError, match="filter operators must be matrices"):
        LocalFilter(np.ones(2), np.eye(2))

