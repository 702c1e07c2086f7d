"""The ``diff-top-1-proofs`` semiring (§2.4, §3.5).

The workhorse of the paper's differentiable benchmarks: tags are top-1
proofs (as in :mod:`.top1proof`) and the probability of a fact is the
product of its proof's input probabilities.  The gradient w.r.t. input fact
``i`` in the proof is the leave-one-out product of the other members —
computed exactly, including rows containing zero probabilities.
"""

from __future__ import annotations

import numpy as np

from .top1proof import PAD, Top1ProofProvenance, leave_one_out_products, live_proofs


class DiffTop1ProofProvenance(Top1ProofProvenance):
    """Differentiable single-proof tracking."""

    name = "diff-top-1-proofs"
    is_differentiable = True

    def backward(self, tags, grad_out, grad_in) -> None:
        if len(tags) == 0:
            return
        proofs = live_proofs(tags)
        valid = (proofs != PAD) & (tags["size"][:, None] > 0)
        safe = np.clip(proofs, 0, max(self.n_inputs - 1, 0))
        probs = np.where(valid, self.input_probs[safe], 1.0)
        partials = leave_one_out_products(probs, valid)
        weighted = partials * grad_out[:, None]
        np.add.at(grad_in, safe[valid], weighted[valid])
