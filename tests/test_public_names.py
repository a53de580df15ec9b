"""The package's public names: each library module's ``__all__`` is the
one list of its names, and the package exports exactly their union."""
import importlib

import edgeslide

MODULES = ("graph", "moves", "slides", "prescribe", "regularize", "euler", "oracle")

PUBLIC_NAMES = {
    "AddPendant", "CensusReport", "DegreeTarget", "Graph", "GraphError", "GraphStats",
    "LevelTrace", "Move", "MoveError", "MoveScript", "ParseError", "RegularizeStep",
    "RemoveLeaf", "Slide", "Smooth", "Subdivide", "TransformPlan", "almost_regular_target",
    "apply_move", "collapse_to_order", "complete_graph", "connected_components",
    "cycle_graph", "enumerate_connected", "expand_to_order", "find_transfer_paths",
    "format_census_table", "identity_bijection", "interchange", "inverse_bijection",
    "is_connected", "is_isomorphic_under", "minimal_energy_oracle", "move_edge",
    "parse_graph", "parse_script", "parse_script_lines", "path_graph",
    "pendant_subdivide_equivalence", "raise_degree", "raise_degree_in_tree",
    "reachability_census", "regularize", "regularize_steps", "replay", "serialize_graph",
    "serialize_script", "shortest_path", "shuffle", "slide_along_path", "slide_distances",
    "slide_neighbors", "spanning_tree", "star_graph", "stats", "transform",
    "transform_euler", "transform_peel",
}


def _modules():
    return [importlib.import_module(f"edgeslide.{name}") for name in MODULES]


def test_package_exports_the_union_of_the_module_lists():
    names = edgeslide.__all__
    assert len(names) == len(set(names))
    assert names == [name for module in _modules() for name in module.__all__]
    assert set(names) == PUBLIC_NAMES


def test_each_name_is_its_module_object():
    for module in _modules():
        for name in module.__all__:
            assert getattr(edgeslide, name) is getattr(module, name), name
    assert edgeslide.regularize is importlib.import_module("edgeslide.regularize").regularize


def test_internal_names_stay_internal():
    assert "check_bijection" not in edgeslide.__all__
    assert importlib.import_module("edgeslide.cli").__all__ == ["run", "main"]
