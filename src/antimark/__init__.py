"""Antidistinguishability and local state antimarking for small ensembles."""

from .ensembles import (Ensemble, SequenceEnsemble, angle_ket, bell4, bennett9,
                        build_catalog, catalog, double_sic_antiparallel, duan4,
                        local_part, nl1, nl2, parse_ensemble, pbr4,
                        product_ensemble, qubit_perp, qutrit_sum, restrict,
                        sequence_ensemble, sequence_local_part, sic4, sic_kets,
                        su3, theta4, trine3, weak3)
from .exclusion import (CavesReport, ExclusionCounts, Povm, StrongReport,
                        Verdict, caves_criterion, compose_union,
                        decide_antidist, exclusion_counts, povm_from_caves_triple,
                        qubit_antidist_lp, search_exclusion_povm,
                        verify_no_witness, verify_strong)
from .locc import (LoccProtocol, WalgateDecomposition, bell_exclusion_protocol,
                   bennett_exclusion_protocol, build_pairwise_lad_protocol,
                   double_sic_exclusion_protocol, flatten_protocol,
                   nl1_identification_povms, nl2_identification_povms,
                   parse_protocol, serialize_protocol,
                   verify_conclusive_identification, verify_local_protocol,
                   walgate_basis, zero_diagonal_unitary)
from .lsam import (LsamTask, SweepResult, ThetaMeasurement, check_lsam,
                   lift_first_slot, lsam_scaling, pbr_sequence_measurement,
                   sweep_theta, theta_global_measurement,
                   theta_sequence_protocol, verify_sequence_elimination)
from .qcore import DEFAULT_TOL, DataError, PartyLayout

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "DataError", "PartyLayout",
    "Ensemble", "SequenceEnsemble", "product_ensemble", "sequence_ensemble",
    "sequence_local_part", "local_part", "restrict", "catalog", "build_catalog",
    "parse_ensemble",
    "angle_ket", "qubit_perp", "qutrit_sum", "sic_kets",
    "weak3", "trine3", "bell4", "bennett9", "duan4", "nl1", "sic4",
    "double_sic_antiparallel", "pbr4", "theta4", "nl2", "su3",
    "Povm", "Verdict", "CavesReport", "StrongReport", "ExclusionCounts",
    "caves_criterion", "verify_strong", "verify_no_witness", "qubit_antidist_lp",
    "povm_from_caves_triple", "compose_union", "search_exclusion_povm",
    "exclusion_counts", "decide_antidist",
    "LoccProtocol", "WalgateDecomposition", "walgate_basis",
    "zero_diagonal_unitary", "build_pairwise_lad_protocol", "flatten_protocol",
    "verify_local_protocol", "verify_conclusive_identification",
    "bell_exclusion_protocol", "bennett_exclusion_protocol",
    "double_sic_exclusion_protocol", "nl1_identification_povms",
    "nl2_identification_povms", "parse_protocol", "serialize_protocol",
    "LsamTask", "lsam_scaling", "check_lsam", "verify_sequence_elimination",
    "lift_first_slot", "pbr_sequence_measurement", "ThetaMeasurement",
    "theta_global_measurement", "theta_sequence_protocol", "sweep_theta",
    "SweepResult",
]
