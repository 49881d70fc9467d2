"""Built-in maps and controllers shipped with the package."""

from __future__ import annotations

from importlib import resources

from .fsc import FSC
from .grid import FLOOR, GridMap, parse_map


def zero_map() -> GridMap:
    """The 2x2 all-floor training map (id ``zero``): four passable tiles and
    no start or end.  The navigation program is learned from this map alone,
    with a fully generalized example."""
    return GridMap("zero", 2, 2, ((FLOOR, FLOOR), (FLOOR, FLOOR)))


def _read(subdir: str, filename: str) -> str:
    # The package's own files, also where a copy is loaded under another name.
    return (resources.files(__package__) / subdir / filename).read_text()


def fixture_map(name: str) -> GridMap:
    """Load a packaged map by stem, e.g. ``maze_a`` or ``lake_01``."""
    return parse_map(_read("maps", f"{name}.map"), name)


def map_fixture_names() -> tuple[str, ...]:
    entries = (resources.files(__package__) / "maps").iterdir()
    return tuple(sorted(p.name[:-4] for p in entries if p.name.endswith(".map")))


def lake_fixture_names() -> tuple[str, ...]:
    return tuple(n for n in map_fixture_names() if n.startswith("lake_"))


def fixture_controller(name: str) -> FSC:
    """Load a packaged controller by stem, e.g. ``maze_a``."""
    return FSC.from_text(_read("controllers", f"{name}.fsc"))
