"""Matrix convex sets over convex bodies: membership, scaling, models.

The package decides membership in minimal and maximal matrix convex
sets over a compact convex base, in matrix ranges of operator tuples
via Choi-matrix feasibility, brackets scaling constants between the two
set constructions, compresses commuting normal tuples onto boundary
spectra, and carries a compact-perturbation toolkit for diagonal
tuples.  Everything runs on a block-diagonal semidefinite feasibility
solver with verified primal witnesses and dual separation certificates.
A public name loads its module when it is first read (PEP 562), so a
command pays only for the modules it reaches.
"""

from importlib import import_module

__version__ = "0.1.0"

#: each public name, by the module that defines it
_EXPORTS = {
    "errors": (
        "BadProblem", "DimensionMismatch", "EmptyEssentialSpectrum", "MConvexError",
        "NoCertificate", "NoInteriorZero", "NonHermitianInput", "NotCommuting",
        "NotInKmax", "ReducibleCandidate", "TooLarge", "TupleMismatch",
    ),
    "geometry": (
        "Box", "ConvexBody", "Disc", "PolygonSandwich", "Polytope", "Sampled",
        "essential_range_hull", "extreme_points", "hull_membership_gap", "is_simplex",
        "jnr_sandwich", "support_value",
    ),
    "linalg": (
        "OperatorTuple", "commutant_dimension", "direct_sum", "herm_part",
        "numerical_radius", "op_norm", "simdiag_hermitian", "skew_part",
        "words_equivalent",
    ),
    "models": (
        "BlockModel", "DiagonalTuple", "NormalTuple", "PerturbationReport",
        "SpectralModel", "block_diagonal_model", "essential_spectrum_diag",
        "extreme_spectral_compression", "finite_truncation", "joint_spectrum",
        "sw_perturbation", "verify_complete_isometry", "verify_local_sw",
    ),
    "ranges": (
        "MembershipResult", "MembershipStatus", "ThetaEstimate", "calibrate_choi_li",
        "choi_li_equiv_check", "choi_li_transform", "is_matrix_extreme_free_symmetric",
        "is_matrix_extreme_free_unitary", "kmax_member", "kmin_member", "mrange_equal",
        "theta_min_alpha", "ucp_member",
    ),
    "sdp": (
        "AffineConstraint", "SdpFeasibility", "Separator", "Status", "Verdict",
        "dual_witness", "solve_feasibility", "verify_witness",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, read from its module, which loads on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
