"""Register walkthrough: post-selected initialization, Hadamard, CNOT.

A virtual register is a row of two-valued qubits reading one shared phase.
Qubit 0 is the signal: trials where it comes up red (bit 1) are discarded,
so the surviving trials start from a known |0> signal. The other qubits
keep their phase-induced correlation with the signal, which post-selection
turns into controllable conditional statistics.

Gates then act on qubit states and on the accepted records:
* Hadamard on a qubit state follows the determined-value rule: any
  balanced qubit collapses to definite 0, and definite qubits become
  balanced. Applying it twice does not restore the input (the unitary
  oracle gate does).
* CNOT flips the target bit of each accepted trial wherever the control
  bit is 1, and undoes itself when applied twice.

Run:  python3 demos/initialize_and_gates.py
"""

import math
from collections import Counter

import numpy as np

from phasebit import (
    Balanced,
    Definite,
    PhaseModel,
    VirtualRegister,
    apply_cnot_to_bits,
    hadamard,
    initialize,
    make_phase_stream,
)

TRIALS = 40_000
SEED = 42


def main():
    stream = make_phase_stream(PhaseModel(seed=SEED))
    register = VirtualRegister(
        [Balanced(0.0), Balanced(math.pi / 4), Balanced(math.pi)], stream
    )
    print(f"Register: signal at angle 0, targets at pi/4 and pi; {TRIALS} trials")

    bits = initialize(register, TRIALS)
    accepted = len(bits)
    rate = accepted / TRIALS
    print(f"Accepted {accepted} trials (rate {rate:.3f}; signal is green half the time)")
    print(f"Signal bits in accepted records: {set(bits[:, 0].tolist())}")

    same_quarter = np.mean(bits[:, 1] == 0)
    same_opposite = np.mean(bits[:, 2] == 0)
    print(f"P(target@pi/4 green | accepted) = {same_quarter:.3f}   (exact 0.75)")
    print(f"P(target@pi  green | accepted) = {same_opposite:.3f}   (exact 0: anticorrelated)")

    print("\nHadamard rule on qubit states:")
    for q in (Balanced(0.7), Definite(0), Definite(1)):
        print(f"  H {q}  ->  {hadamard(q)}")
    print(f"  H (H Definite(1)) -> {hadamard(hadamard(Definite(1)))}   (not an involution)")

    print("\nCNOT on the accepted records, control=2 (pi target), target=1:")
    flipped = apply_cnot_to_bits(bits, 2, 1)
    before = Counter(map(tuple, bits.tolist()))
    after = Counter(map(tuple, flipped.tolist()))
    for record, count in sorted(before.items()):
        print(f"  {record} x{count}", end="")
    print()
    for record, count in sorted(after.items()):
        print(f"  {record} x{count}", end="")
    print()
    restored = apply_cnot_to_bits(flipped, 2, 1)
    print(f"Applying CNOT twice restores the records: {np.array_equal(restored, bits)}")


if __name__ == "__main__":
    main()
