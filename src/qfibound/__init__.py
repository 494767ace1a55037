"""Channel-level lower bound on the quantum Fisher information.

The core quantity is F_down = (rho'|rho') - |(rho|rho')|^2 / (rho|rho),
a QFI lower bound computable directly from the state and its parameter
derivative in Liouville space, plus the machinery to maximize it over
initial states of N-fold product channels and the estimation-scenario
analytics built on top (optimal interrogation times, precision scaling,
lossy interferometry, entangled coherent states).
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: Submodule -> the public names it exports.  Every name is written here
#: once; the loop below binds it on the package, and ``__all__`` is this
#: table plus the submodule of error classes, which the imports bind too.
_EXPORTS = {
    "bound": (
        "BoundResult",
        "OptimalStateResult",
        "analytic_max_phase_covariant",
        "associated_qfi",
        "ghz_lower_bound",
        "ghz_state",
        "lower_bound_from_channel",
        "lower_bound_from_state",
        "max_bound_over_states",
    ),
    "channels": (
        "AMPLITUDE_DAMPING",
        "DEPHASING",
        "DEPOLARIZING",
        "EXPONENTIAL_FORM",
        "TRUNCATED_FORM",
        "EcsSpec",
        "NoiseParams",
        "ShortTimeModel",
        "ecs_vector",
        "loss_kraus",
        "named_noise",
        "params_at",
        "phase_covariant_family",
        "rotation_family",
    ),
    "liouville": (
        "ChannelFamily",
        "gram_tensor_power",
        "gram_triple",
        "liouville_inner",
        "product_family",
        "superop_from_kraus",
        "tensor_power",
        "tensor_power_derivative",
    ),
    "metrology": (
        "EcsBreakdown",
        "PrecisionConfig",
        "ScalingResult",
        "correlated_gram_max",
        "ecs_lower_bound_closed",
        "ecs_lower_bound_numeric",
        "ecs_practical_forms",
        "interferometer_gram_diag",
        "interferometer_optimal_m",
        "precision_scaling",
        "t_opt_numeric",
        "t_opt_paper",
        "tau_solve",
    ),
    "qfi_oracle": (
        "Povm",
        "SldResult",
        "classical_bound",
        "classical_fisher",
        "exact_qfi",
        "optimal_povm_from_rho_prime",
    ),
    "sampling": (
        "random_hermitian",
        "random_kraus_set",
        "random_mixed_state",
        "random_noisy_family",
        "random_pure_state",
        "random_short_time_model",
        "random_unitary",
        "random_unitary_family",
    ),
    "verify": ("DEFAULT_SEED", "VERIFY_REPORT_SCHEMA", "corrupt_family", "run_verification"),
}

for _module, _names in _EXPORTS.items():
    _namespace = vars(importlib.import_module(f".{_module}", __name__))
    globals().update({name: _namespace[name] for name in _names})

__all__ = sorted(["errors", *(name for names in _EXPORTS.values() for name in names)])
