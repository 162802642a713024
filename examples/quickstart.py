"""Quickstart: build a PEPS, apply operators, measure an observable.

This reproduces (and extends) the code listing from Section V-A of the paper:
a 2x3 PEPS is created in the computational zero state, one- and two-site
operators are applied with the QR-SVD update, and an expectation value is
computed with the cached two-layer IBMPS contraction — one query to a
contraction environment, like the norm and the overlap that follow.  The same
computation is repeated with an exact statevector to show that the two agree.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import Observable, peps
from repro.operators import gates
from repro.peps import BMPS, QRUpdate
from repro.statevector import StateVector
from repro.tensornetwork import ImplicitRandomizedSVD


def main() -> None:
    # --- Create a 2x3 PEPS in |000000> ------------------------------------
    # (use backend="ctf" for the simulated distributed-memory backend)
    qstate = peps.computational_zeros(nrow=2, ncol=3, backend="numpy")
    print("initial state:", qstate)

    # --- Apply one-site and two-site operators with QR-SVD -----------------
    Y = gates.Y()
    CX = gates.CNOT()
    qstate.apply_operator(Y, [1])                      # one-site operator
    qstate.apply_operator(CX, [1, 4], QRUpdate(rank=2))  # two-site, bond capped at 2
    qstate.apply_operator(gates.H(), [0])
    qstate.apply_operator(CX, [0, 3], QRUpdate(rank=2))
    print("after the circuit:", qstate)
    print("bond dimensions:", qstate.bond_dimensions())

    # --- Calculate an expectation value with cached IBMPS ------------------
    H = Observable.ZZ(3, 4) + 0.2 * Observable.X(1)
    result = qstate.expectation(H, contract_option=BMPS(ImplicitRandomizedSVD(rank=4, seed=0)))
    print(f"<psi| ZZ(3,4) + 0.2 X(1) |psi>  (PEPS, cached IBMPS) = {result:+.8f}")

    # --- Cross-check against the exact statevector simulator ---------------
    sv = StateVector.computational_zeros(6)
    sv = sv.apply_matrix(Y, [1]).apply_matrix(CX, [1, 4])
    sv = sv.apply_matrix(gates.H(), [0]).apply_matrix(CX, [0, 3])
    exact = sv.expectation(H)
    print(f"<psi| ZZ(3,4) + 0.2 X(1) |psi>  (exact statevector)  = {exact:+.8f}")
    print(f"difference = {abs(result - exact):.2e}")

    # --- Amplitudes ---------------------------------------------------------
    bits = [1, 1, 0, 1, 1, 0]
    amp = qstate.amplitude(bits)
    print(f"amplitude <{''.join(map(str, bits))}|psi> = {amp:+.6f}  "
          f"(exact {sv.amplitude(bits):+.6f})")

    # --- Norm and overlap (exact contractions when no option is given) ------
    basis = peps.computational_basis(bits, nrow=2, ncol=3)
    print(f"overlap <{''.join(map(str, bits))}|psi> = {basis.inner(qstate):+.6f}")
    print(f"norm = {qstate.norm():.8f}  (exact {sv.norm():.8f})")


if __name__ == "__main__":
    main()
