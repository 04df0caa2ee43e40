class ConfigError(Exception):
    """Bad run configuration (unknown scheme, missing field, bad value)."""


class DataError(Exception):
    """Malformed or unreadable external data (flow CSVs, map files)."""
