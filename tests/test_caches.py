"""Every `functools` cache in the package keeps a bounded number of entries.

The per-n caches share one bound, `analysis.CACHE_BOUND`, so a long
`verify --range` holds a fixed number of families and normal-form tables
however far it runs.  The one exception keeps a single Z^m per m, so
that `compose` finds two maps' lattices identical before it compares
them.  A new cache fails here until it takes the bound or is named as an
exception.
"""

import gc
import importlib
import inspect
import pkgutil
import weakref

import dihedral_torus
from dihedral_torus.analysis import CACHE_BOUND
from dihedral_torus.dihedral import _family, realified_action
from dihedral_torus.words import evaluate_word, parse_word


def _cache_bounds():
    """Each cache wrapper of a package module or class, with its maxsize."""
    bounds = {}
    for info in pkgutil.iter_modules(dihedral_torus.__path__):
        if info.name == "__main__":  # runs the command line when imported
            continue
        module = importlib.import_module(f"dihedral_torus.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            owned = [(name, obj)]
            if inspect.isclass(obj):
                owned += [
                    (f"{name}.{attr}", getattr(value, "__func__", value))
                    for attr, value in vars(obj).items()
                ]
            for path, fn in owned:
                if hasattr(fn, "cache_parameters"):
                    bounds[f"{info.name}.{path}"] = fn.cache_parameters()["maxsize"]
    return bounds


def test_every_cache_takes_the_one_bound():
    bounds = _cache_bounds()
    assert bounds.pop("torus.EnlargedLattice.standard") is None
    assert {"dihedral._family", "analysis._normal_forms"} <= set(bounds)
    assert set(bounds.values()) == {CACHE_BOUND}
    # A pass of the benchmark's theorem-family workload reads n = 1..8.
    assert CACHE_BOUND >= 8


def test_a_kept_element_dies_with_its_family():
    # A word query keeps its element map in the pair's presentation, on r
    # of the family's pair, and adds no cache of its own.
    caches = set(_cache_bounds())
    n = 3 * CACHE_BOUND + 7  # a family no other test reads
    r, s = realified_action(n)
    word = parse_word("r^3 s")
    kept = weakref.ref(evaluate_word(word, r, s))
    assert evaluate_word(word, r, s) is kept()
    del r, s
    for other in range(1, CACHE_BOUND + 2):
        _family(n + other)
    gc.collect()
    assert kept() is None
    assert set(_cache_bounds()) == caches == {
        "torus.EnlargedLattice.standard", "dihedral._family", "analysis._normal_forms"
    }
