"""The paper's primary contribution: MCOS generation (NAIVE / MFS / SSG)
and CNF query evaluation (CNFEval / CNFEvalE) over video object streams.

Layer map (paper section -> module):

- Section 2 problem model, states, windows;
  the state-update rule all three generators
  share (create/append/merge, marks,
  principal state, §5.3 admit)              -> :mod:`repro.core.model`
- Section 4.2 Marked Frame Set (MFS): full
  scan, death when the newest mark expires  -> :mod:`repro.core.mfs`
- Section 4.3 Strict State Graph (SSG/ST):
  traversal, graph hooks, lazy result set   -> :mod:`repro.core.ssg`
- Section 6.2 NAIVE baseline: full scan,
  death when frames drain, grouping results -> :mod:`repro.core.naive`
- Section 5 CNFEval / CNFEvalE              -> :mod:`repro.core.cnf`
- Section 5.2/5.3 coupling + pruning        -> :mod:`repro.core.evaluate`
- from-definition test oracle               -> :mod:`repro.core.brute`
"""
from repro.core.model import ObjSetCodec, State, Window  # noqa: F401
