"""The hand-coded residual of an algebra at one key, whatever its kind.

The generic residual (``ftalgebra.ft_residual``) is checked against these
formulas in the acceptance suite and in the endomorphism-operad and
algebra tests; they all dispatch on the kind here.
"""
from operad_forge import ftalgebra as FT


def hand_residual(data, key):
    if data.kind == "loop":
        return FT.loop_residual(data, key.n, key.genus)
    if data.kind == "cyclic_ainfty":
        return FT.cyclic_residual(data, key.n)
    if data.kind == "quantum_ainfty":
        return FT.quantum_residual(data, key.bseq, key.g)
    return FT.qoc_residual(data, key)
