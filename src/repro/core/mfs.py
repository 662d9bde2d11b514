"""Marked Frame Set (MFS) approach to MCOS generation (paper §4.2).

Like NAIVE, every stored state is intersected with each arriving
frame; unlike NAIVE, every state carries a *Marked Frame Set* whose
marks form a Key Frame Set (Definition 4, Theorem 1).  A state becomes
invalid — and is removed immediately — the moment its last marked
frame expires, so invalid states are neither re-intersected against
future frames nor filtered at result time.

The full scan and the Frame Marking Rules (§4.2.3, disambiguated per
DESIGN.md) live in the shared update rule,
:class:`~repro.core.model.MCOSGenerator`:

1. A state created (or re-encountered) *as the arriving frame's full
   object set* has the arriving fid marked: the single-frame suffix
   ``{i}`` intersects to exactly that object set.
2. A state generated by intersection inherits the union of its
   generators' marks; the arriving fid is appended *unmarked* (Table 2
   semantics — marking it would wrongly certify the ``{i}`` suffix).
3. When the intersection of a generator ``s'`` with the arriving frame
   equals an *existing* state's object set, the generator's marks are
   propagated onto that state (rule 2 of §4.2.3): for any mark ``f``
   of ``s'``, the suffix of the target's frame set from ``f`` onward
   intersects to ``ID_{s'} ∩ O_i``, which is the target's object set.

MFS supplies only its death rule (the newest mark expired) and
``results``.
"""
from __future__ import annotations

from repro.core.model import MCOSGenerator


class MFSGenerator(MCOSGenerator):
    """State maintenance with Marked Frame Sets."""

    def _expire(self, lo: int) -> None:
        # Expire frames; drop states whose newest mark expired — by
        # Theorem 1 those states are invalid.
        states = self.states
        for mask in list(states):
            st = states[mask]
            if st.mark < lo:
                del states[mask]
                continue
            st.expire(lo)

    def results(self) -> dict[int, list[int]]:
        """Satisfied valid states: all survivors with ``|F_s| >= d``."""
        d = self.win.d
        return {
            mask: list(st.frames)
            for mask, st in self.states.items()
            if len(st.frames) >= d
        }
