"""The package's public surface: `__all__` names exactly what it exports."""

import types

import vassbound


def test_every_all_entry_resolves_to_a_public_object():
    assert len(set(vassbound.__all__)) == len(vassbound.__all__)
    for name in vassbound.__all__:
        assert not isinstance(getattr(vassbound, name), types.ModuleType), name


def test_documented_library_names_are_exported():
    documented = {"parse_vass", "analyze", "build_witness", "verify_witness",
                  "exponential_certificate", "Vass", "Transition", "Path",
                  "Valuation", "longest_trace", "max_reachable", "max_instances"}
    assert documented <= set(vassbound.__all__)
