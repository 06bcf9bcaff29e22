"""Prefilled run configurations for the benchmark experiments.

Reference values: the p = 2 unit-square case (example 1a's Laplacian)
uses the closed form of its goal, the p = 4 unit-square and the cheese
cases carry fine-grid benchmark values (with their stated
uncertainties), and the manufactured and slit cases use the closed-form
exact solution.  The slit integral J_C was evaluated from the closed
form by adaptive quadrature split along the slit line (tolerance 1e-13,
reported error 3e-9); J_D equals 2 exactly because its weight
telescopes at the exact solution.
"""

from __future__ import annotations

import math

from .adaptivity import RunConfig
from .errors import UnknownExperiment

# fine-grid values for the cheese domain, p = 4 and p = 1.33
_CHEESE_P4 = {
    "int_u": (4.1285036414, 4e-5),
    "box_u": (0.31999986649, 1e-5),
    "u_29_21": (0.16071095234, 1e-5),
    "u_06_06": (0.35554352679, 2e-6),
    "u_25_25": (0.49244705234, 4e-6),
}
_CHEESE_P133 = {
    "int_u": (0.48510099008, 4e-5),
    "box_u": (0.038058285978, 4e-6),
    "u_29_21": (0.034930138311, 4e-6),
    "u_06_06": (0.024478640536, 2e-6),
    "u_25_25": (0.039616834482, 4e-6),
}

# J(u) = int u for -Laplace u = 1 on the unit square, u = 0 on its
# boundary, from the Fourier series in x:
# J = 1/12 - (16/pi^5) sum_{m odd} tanh(m pi/2)/m^5, written out as the
# fsum over odd m below SQUARE_TERMS.  With tanh <= 1 the tail is at most
# (16/pi^5) / (8 (SQUARE_TERMS - 2)^4) = 2.6e-21, below the double's own
# rounding (~1e-17); 100 terms would leave it 4e-12 off.
SQUARE_TERMS = 40_001
SQUARE_J = 0.03514425373878841
SQUARE_J_TRUNCATION = 16.0 / math.pi ** 5 / (8.0 * (SQUARE_TERMS - 2) ** 4)

# closed-form values for the slit system (J_C by adaptive quadrature)
SLIT_JC = 1.107022634790892          # +- 3e-9
SLIT_JA = math.sqrt(math.sqrt(0.25 + 1e-4) + 0.5)
SLIT_JB = math.sqrt(math.sqrt(2e-4) + 0.01)
SLIT_JD = 2.0
SLIT_JE = -math.sqrt(math.sqrt(2 * 0.81) + 0.9)
SLIT_JF = 1.0 + math.sqrt(math.sqrt(0.81 + 0.01) + 0.9)


def _cheese_refs(vals):
    """(J_1..J_4) from the base quantities; u(2.1,2.9) = u(2.9,2.1) by
    the diagonal symmetry of the domain and data."""
    q = vals["u_29_21"][0]
    j1 = (1.0 + q) * (1.0 + q)
    j2 = (vals["int_u"][0] - 8.0 * vals["u_25_25"][0]) ** 2
    return (j1, j2, vals["box_u"][0], vals["u_06_06"][0])


def _cheese_uncertainties(vals):
    q, dq = vals["u_29_21"]
    j1 = 2.0 * (1.0 + q) * dq
    base = abs(vals["int_u"][0] - 8.0 * vals["u_25_25"][0])
    j2 = 2.0 * base * (vals["int_u"][1] + 8.0 * vals["u_25_25"][1])
    return (j1, j2, vals["box_u"][1], vals["u_06_06"][1])


def slit_references():
    return (SLIT_JB * SLIT_JD, SLIT_JA * SLIT_JC, SLIT_JA * SLIT_JC * SLIT_JF,
            SLIT_JB * SLIT_JE, SLIT_JB ** 3 * SLIT_JE, SLIT_JC)


_PRESETS = {}


def _register(name, **kwargs):
    _PRESETS[name] = RunConfig(label=name, **kwargs)


_register(
    "example1a_case1",
    experiment="example1a", geometry="unit_square", n_initial=4,
    system="plaplace", p=2.0, epsilon=1.0, degree=3, enriched_degree=6,
    combine="raw", tol_dis=1e-12, max_levels=6, max_dofs=20_000,
    reference_values=(SQUARE_J,),
    reference_uncertainties=(SQUARE_J_TRUNCATION,),
    je_truth="reference")

_register(
    "example1a_case1_q3q4",
    experiment="example1a", geometry="unit_square", n_initial=4,
    system="plaplace", p=2.0, epsilon=1.0, degree=3, enriched_degree=4,
    combine="raw", tol_dis=1e-12, max_levels=7, max_dofs=20_000,
    reference_values=(SQUARE_J,),
    reference_uncertainties=(SQUARE_J_TRUNCATION,),
    je_truth="reference")

_register(
    "example1a_case2",
    experiment="example1a", geometry="unit_square", n_initial=2,
    system="plaplace", p=4.0, epsilon=1.0, degree=1,
    combine="raw", tol_dis=1e-12, max_levels=9, max_dofs=60_000,
    reference_values=(0.033553988572,), reference_uncertainties=(1e-6,),
    je_truth="reference")

_register(
    "example1b_case1",
    experiment="example1b", geometry="unit_square", n_initial=16,
    distort_factor=0.2, seed=42,
    system="plaplace", p=5.0, epsilon=0.5, manufactured=True, degree=1,
    cold_start="homotopy",
    combine="raw", tol_dis=1e-12, max_levels=12, max_dofs=200_000,
    reference_values=(math.sin(7.2),), reference_uncertainties=(0.0,),
    je_truth="reference")

_register(
    "example1b_case2",
    experiment="example1b", geometry="unit_square", n_initial=16,
    distort_factor=0.2, seed=42,
    system="plaplace", p=1.5, epsilon=0.5, manufactured=True, degree=1,
    cold_start="homotopy",
    combine="raw", tol_dis=1e-12, max_levels=12, max_dofs=200_000,
    reference_values=(math.sin(7.2),), reference_uncertainties=(0.0,),
    je_truth="reference")

_register(
    "example1c_case1",
    experiment="example1c", geometry="cheese", initial_refines=1,
    system="plaplace", p=4.0, epsilon=1e-10, degree=1,
    combine="weighted", tol_dis=1e-12, max_levels=8, max_dofs=150_000,
    reference_values=_cheese_refs(_CHEESE_P4),
    reference_uncertainties=_cheese_uncertainties(_CHEESE_P4),
    je_truth="surrogate")

_register(
    "example1c_case2",
    experiment="example1c", geometry="cheese", initial_refines=1,
    system="plaplace", p=1.33, epsilon=1e-10, degree=1,
    combine="weighted", tol_dis=1e-12, max_levels=8, max_dofs=150_000,
    reference_values=_cheese_refs(_CHEESE_P133),
    reference_uncertainties=_cheese_uncertainties(_CHEESE_P133),
    je_truth="surrogate")

_register(
    "example2",
    experiment="example2", geometry="slit",
    system="quasilinear", degree=1,
    combine="weighted", tol_dis=1e-12, max_levels=16, max_dofs=60_000,
    reference_values=slit_references(),
    reference_uncertainties=(1e-9,) * 6,
    je_truth="reference")


def preset_names():
    return sorted(_PRESETS)


def get_preset(name):
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownExperiment(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
