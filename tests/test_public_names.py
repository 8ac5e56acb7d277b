"""The package's public names: each module's `__all__` is the only list."""

import eisenshift
from eisenshift import algebra, census, density, eisenstein, errors, intpoly, primes

MODULES = (algebra, census, density, eisenstein, errors, intpoly, primes)


def test_package_all_is_the_module_lists():
    names = eisenshift.__all__
    assert len(names) == len(set(names))
    expected = {"__version__"}
    for module in MODULES:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        assert expected.isdisjoint(module.__all__), module.__name__
        expected.update(module.__all__)
    assert set(names) == expected
    # 41 names from the modules and __version__: a name no caller needs
    # leaves the package rather than growing it.
    assert len(names) == 42


def test_each_name_is_the_defining_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(eisenshift, name) is getattr(module, name), (module.__name__, name)


def test_names_the_module_tour_promises_are_importable():
    from eisenshift import derivative, discriminant, iroot

    assert derivative is intpoly.derivative
    assert discriminant is algebra.discriminant
    assert iroot is primes.iroot
