"""The event-centric baseline engine the paper compares TiLT against.

:class:`~repro.spe.trill.TrillEngine` is modelled on Microsoft Trill:
interpreted, micro-batched, with full operator coverage.  It consumes the
same frontend query DAG (``repro.core.frontend``) as TiLT, so every
application in ``repro.apps`` is written exactly once and runs on both.
"""

from .trill import TrillEngine

__all__ = ["TrillEngine"]
