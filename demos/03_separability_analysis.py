"""Deciding entanglement for every pair and every bipartition of four modes.

The partial-transpose witness settles all 1xN splits; the iterative
criterion settles the rest.  On the distributed four-mode state each
mode ends up entangled with the two modes descending from the other
source beam, and separable from its own sibling.
"""

import numpy as np

from cvmodes import (
    Bipartition,
    GaussianState,
    StandardFormParams,
    bipartition_scan,
    emit_report,
    iterative_separability,
    make_standard_form,
    pairwise_entanglement_map,
    ppt_verdict,
    run_pipeline,
    distribution_config,
)

np.set_printoptions(precision=4, suppress=True)

source = {"kind": "standard_form", "a": 0.72, "b": 0.72,
          "c1": 0.51, "c2": -0.51}

# the two-mode source itself
state = make_standard_form(StandardFormParams(0.72, 0.72, 0.51, -0.51))
verdict = ppt_verdict(state, Bipartition((0,), (1,)))
print("source a|b:", verdict.status.value,
      " witness", round(verdict.witness, 4),
      " log-negativity", round(verdict.log_negativity, 4))

both = iterative_separability(state, Bipartition((0,), (1,)))
print("iterative route agrees:", both.status.value,
      f"({both.iterations} iterations)")

# distribute and analyze everything
result = run_pipeline(distribution_config(
    source=source, analyses=("pairwise", "scan")))
print("\n" + emit_report(result.report, "text").decode())

# uniform loss degrades but never creates entanglement
print("loss sweep on the a1/b1 marginal (witness vs efficiency):")
out = result.final_state
for eta in (1.0, 0.8, 0.6, 0.4, 0.2):
    lossy = GaussianState(
        out.register,
        np.sqrt(eta) * out.mean,
        eta * out.cov + (1 - eta) * 0.5 * np.eye(8),
    )
    report = pairwise_entanglement_map(lossy)
    v = report.pair(0, 2)
    print(f"  eta = {eta:.1f}: {v.status.value:<11} witness {v.witness:.4f}")

# a product source makes every split separable
product = run_pipeline(distribution_config(
    source={"kind": "opo", "r": 0.0}, analyses=("scan",)))
print("\nvacuum source: all splits separable ->",
      {v.status.value for _, v in product.report.bipartitions})

# 2x2 splits need the iterative criterion when the transpose passes
vac_state = product.final_state
split = Bipartition((0, 1), (2, 3))
print("2x2 split of the vacuum:",
      ppt_verdict(vac_state, split).status.value, "via transpose alone,",
      iterative_separability(vac_state, split).status.value,
      "after the iteration")

for split, v in bipartition_scan(result.final_state):
    tags = result.final_state.register.tags
    left = ",".join(tags[k] for k in split.side_a)
    right = ",".join(tags[k] for k in split.side_b)
    print(f"  {left:>6} | {right:<9} {v.status.value:<10} "
          f"witness {v.witness:.4f} [{v.method.value}]")
