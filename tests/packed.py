"""Boolean lanes to one int, lane j at bit j."""

import numpy as np


def to_int(lanes) -> int:
    return int.from_bytes(np.packbits(np.asarray(lanes, dtype=bool), bitorder="little").tobytes(),
                          "little")
