"""Boolean lanes to and from uint64 words (lane j at bit j % 64 of word
j // 64) and to one int (lane j at bit j)."""

import numpy as np


def pack(lanes) -> np.ndarray:
    bits = np.zeros(-(-len(lanes) // 64) * 64, dtype=bool)
    bits[:len(lanes)] = lanes
    return np.packbits(bits, bitorder="little").view("<u8").astype(np.uint64)


def unpack(words, lanes: int) -> np.ndarray:
    raw = np.asarray(words).astype("<u8").view(np.uint8)
    return np.unpackbits(raw, bitorder="little")[:lanes].astype(bool)


def to_int(lanes) -> int:
    return int.from_bytes(np.packbits(np.asarray(lanes, dtype=bool), bitorder="little").tobytes(),
                          "little")
