"""Phase models: what "the same randomness everywhere" looks like.

Everything in this package reduces to one stationary random phase on
[0, 2pi). Two ways to produce it:

* iid: an independent uniform draw per trial, addressed by a counter-based
  hash, so trial t's phase never depends on having generated trials
  0..t-1.
* oscillator: an ensemble of random fixed angular rates whose sum, held
  as a 64-bit fraction of a turn, advances the phase per trial. Integer
  wraparound is the wrap to one turn, so the rotation is exact at any
  trial index, and it spreads evenly over the circle.

Both pass a Kolmogorov-Smirnov uniformity check. Counter addressing also
makes substreams exact: splitting the trial range across workers re-covers
the serial sequence sample for sample, so results cannot depend on the
worker count.

Run:  python3 demos/phase_models.py
"""

import numpy as np

from phasebit import (
    PhaseModel,
    chunk_quota,
    ks_uniformity,
    make_phase_stream,
    substream,
)

N = 100_000
SEED = 42


def main():
    iid = PhaseModel(kind="iid", seed=SEED)
    osc = PhaseModel(kind="oscillator", seed=SEED, ensemble_size=32, burn_in=1000)

    for model in (iid, osc):
        _, phi = make_phase_stream(model).take(N)
        ks = ks_uniformity(phi)
        verdict = "uniform" if ks.statistic < ks.critical_1pct else "NOT uniform"
        print(f"{model.kind:>10}: first phases {np.array2string(phi[:4], precision=3)}")
        print(
            f"{'':>10}  KS statistic {ks.statistic:.2e} vs 1% critical "
            f"{ks.critical_1pct:.2e} -> {verdict}"
        )

    print("\nDeterminism: same model, fresh stream, same samples:")
    a = make_phase_stream(iid).take(5)[1]
    b = make_phase_stream(iid).take(5)[1]
    print(f"  identical: {np.array_equal(a, b)}")

    print("\nSubstreams: 4 leapfrog chunks re-cover 1000 serial trials exactly:")
    parent = make_phase_stream(iid)
    serial_t, serial_phi = make_phase_stream(iid).take(1000)
    chunks = []
    for c in range(4):
        t, phi = substream(parent, c, 4).take(chunk_quota(1000, c, 4))
        chunks.append((t, phi))
        print(f"  chunk {c}: trials {t[:3].tolist()}... ({t.size} total)")
    union_t = np.concatenate([t for t, _ in chunks])
    union_phi = np.concatenate([p for _, p in chunks])
    order = np.argsort(union_t)
    print(f"  union equals serial stream: {np.array_equal(union_phi[order], serial_phi)}")


if __name__ == "__main__":
    main()
