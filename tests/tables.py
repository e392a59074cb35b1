"""A cold start for the cached tables of ``icg.distance``."""

import importlib

# The package re-exports the function ``distance`` under the module's name.
distance_module = importlib.import_module("icg.distance")


def clear_tables():
    """Drop every cached order table and signature table.

    An order table holds its signature table, so clearing the signature
    tables alone leaves the cached orders reading their old ones.
    """
    distance_module.divisor_classes.cache_clear()
    distance_module._exponent_table.cache_clear()
