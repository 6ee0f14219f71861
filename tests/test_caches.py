"""The caches behind potnum's functions: which they are, and that each is bounded."""

import importlib
import pkgutil

import potnum

# Each of these pays for itself on the σ scan, the decision, the probe or
# the profile; a new cache is added here on purpose, with its measurement
AUDITED = {
    "potnum.sequences._graphic_desc",
    "potnum.graphs._embedding_plan",
    "potnum.oracle._d1_classes",
    "potnum.oracle._distinct_copies",
    # the decision's placement rule asks for H's plan on every pair past
    # the fast path: 1,453 asks for 11 graphs over the check_near pool; a
    # build takes 13-65 us on the corpus patterns, a hit under 1 us
    "potnum.oracle._placement_plan",
    "potnum.oracle._sorted_degrees",
    "potnum.potential.profile",
}


def _caches():
    """Every ``functools.lru_cache`` wrapper that a potnum module defines,
    at module level or on a class, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(potnum.__path__):
        module = importlib.import_module(f"potnum.{info.name}")
        holders = [vars(module)] + [vars(c) for c in vars(module).values() if isinstance(c, type)]
        for holder in holders:
            for obj in holder.values():
                obj = getattr(obj, "__func__", obj)
                if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_the_caches_are_the_audited_ones():
    assert set(_caches()) == AUDITED


def test_every_cache_is_bounded():
    for name, fn in _caches().items():
        maxsize = fn.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize > 0, name
