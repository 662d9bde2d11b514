"""NAIVE baseline for MCOS generation (paper Section 6.2).

Stores every object set ever produced by intersections together with
the frames it appears in, with *no* validity bookkeeping.  Each result
request must therefore collect all duration-satisfying object sets,
group them by their (potentially long) frame sets, and keep only the
maximal object set per group — invalid states are filtered late, and
are re-intersected against every arriving frame until their whole
frame set expires.  Both costs are the ones MFS/SSG exist to avoid.

The state update itself — full scan, create/append/merge, principal
state — is the rule all three generators share,
:class:`~repro.core.model.MCOSGenerator` (the paper implements them in
one memory-based framework), so measured differences reflect the
algorithms — state counts, pruning, and traversal — not data-structure
engineering.  NAIVE supplies only its death rule (a state dies when
its frame set drains) and its grouping ``results``.  Marks are carried
by the shared rule but never read.
"""
from __future__ import annotations

from repro.core.model import MCOSGenerator


class NaiveGenerator(MCOSGenerator):
    """Hash-table state maintenance: objset mask -> frame-set state.

    ``admit`` (§5.3) is accepted so the three generators stay
    interchangeable; the paper always runs NAIVE unpruned.
    """

    def _expire(self, lo: int) -> None:
        # Every state is touched on every frame; a state dies only when
        # its whole frame set has drained out of the window.
        states = self.states
        for mask in list(states):
            st = states[mask]
            st.expire(lo)
            if not st.frames:
                del states[mask]

    def results(self) -> dict[int, list[int]]:
        """Satisfied *valid* states of the current window.

        Collect all object sets meeting the duration threshold, group
        by frame set, and keep the maximal object set per frame set —
        per Definition 2 the states sharing a frame set are a chain
        under inclusion whose maximum is the MCOS.
        """
        d = self.win.d
        best: dict[tuple[int, ...], int] = {}
        for mask, st in self.states.items():
            if len(st.frames) >= d:
                key = tuple(st.frames)
                cur = best.get(key)
                if cur is None or mask.bit_count() > cur.bit_count():
                    best[key] = mask
        return {mask: list(key) for key, mask in best.items()}
