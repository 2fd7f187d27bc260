"""Views of simulator state that several test modules assert through."""


def set_index_of(cache, addr):
    """The set of ``cache`` that ``addr`` maps to."""
    return addr // cache.config.line_bytes % cache.config.num_sets


def resident_lines(cache, set_index):
    """Line addresses resident in ``set_index`` of ``cache``, in way order."""
    ways = cache.config.ways
    base = set_index * ways
    return [tag * cache.config.line_bytes
            for tag in cache._tags[base:base + ways] if tag >= 0]


def identity(alignment):
    """Fraction of an alignment's columns that match."""
    columns = alignment.matches + alignment.mismatches + alignment.gaps
    return alignment.matches / columns if columns else 0.0
