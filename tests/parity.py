"""Per-parity reference evaluation for the one-pass engine tests.

The batch engine and the bound pass evaluate every row with the op list
that carries both TP and DP all-reduces.  These helpers rebuild the
per-parity evaluation -- each ``(TP > 1, DP > 1)`` partition with its
own, shorter op list -- that the one-pass results must equal bit for
bit.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.core.batch import ConfigGrid


def parity_partitions(grid: ConfigGrid
                      ) -> Iterator[Tuple[np.ndarray, ConfigGrid, bool,
                                          bool]]:
    """``(mask, sub-grid, tp_flag, dp_flag)`` for each non-empty
    ``(TP > 1, DP > 1)`` parity partition of ``grid``."""
    tp_par = grid.tp > 1
    dp_par = grid.dp > 1
    for tp_flag in (False, True):
        for dp_flag in (False, True):
            mask = (tp_par == tp_flag) & (dp_par == dp_flag)
            if mask.any():
                columns = (getattr(grid, name)[mask]
                           for name in ConfigGrid.__slots__[:-1])
                yield (mask, ConfigGrid(*columns, precision=grid.precision),
                       tp_flag, dp_flag)
