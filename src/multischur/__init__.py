"""Exact multi-Schur calculus over labelled alphabets.

Two independent engines compute the same families of functions: the
closed-form determinants in :mod:`multischur.expansions` and the
charged-fermion calculator in :mod:`multischur.fock`.  They share only
the exact scalar ring in :mod:`multischur.exactalg` and the shape/alphabet
combinatorics in :mod:`multischur.shapes`.

`import multischur` loads none of them: each public name below imports
its module on first use (PEP 562), so a process loads only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Module -> the public names it defines.
_EXPORTS = {
    "exactalg": "DimensionError Scalar TractabilityError det_over_ring scalar_from_json scalar_to_json",
    "expansions": """SymFunc TruncationError eval_symfunc expand_in_refined_basis
        flagged_schur hall_inner multi_schur refined_dual_grothendieck schur_expand_multischur
        schur_tableau_oracle skew_function skew_multi_schur stable_dual_in_G stable_grothendieck_schur
        sym_schur symfunc_from_json symfunc_to_json truncated_dual_expansion""",
    "fock": """PSI PSI_STAR FockVector MayaState apply_dressed_fermion apply_exp_H
        apply_fermion apply_heisenberg bra_refined_pair bra_refined_table ket_general ket_partition
        ket_refined ket_refined_table vacuum_ket""",
    "shapes": """AlphabetSequence ChargeError Partition empty_sequence horizontal_strips
        partitions_up_to_weight prefix_sequence refined_alphabet refined_sequence subpartitions
        superpartitions""",
    "supersym": "h_series supersym_schur",
    "verifications": "SUITES",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Read from the module on every access, never cached here, so that a
    # name patched on its module shows through the package too.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return [*globals(), *__all__]
