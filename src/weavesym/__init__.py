"""Two-colour symmetry analysis of periodic weave designs."""

from .analysis import ColorGroupAnalysis, GroupElement, color_group, translation_lattices
from .catalog import CatalogEntry, catalog_stats, load_manifest, verify_catalog
from .classify import Classification, classify
from .design import (
    Design,
    DesignFormatError,
    format_design,
    load_design,
    parse_design,
    save_design,
)
from .diagrams import color_diagram_svg, design_svg, layer_diagram_svg, save_svg
from .isometry import POINT_OPS, GridIsometry, PointOp, op_by_name
from .lattice import Lattice
from .naming import layer_symbol_for, pair_descriptor, validate_pair
from .search import SearchTarget, parse_layer_target, parse_pair_target
from .weave import (
    WeaveStructure,
    format_structure,
    gen_twill,
    load_structure,
    parse_structure,
    save_structure,
    striped_faces,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "Classification",
    "ColorGroupAnalysis",
    "Design",
    "DesignFormatError",
    "GridIsometry",
    "GroupElement",
    "Lattice",
    "POINT_OPS",
    "PointOp",
    "SearchTarget",
    "WeaveStructure",
    "catalog_stats",
    "classify",
    "color_diagram_svg",
    "color_group",
    "design_svg",
    "format_design",
    "format_structure",
    "gen_twill",
    "layer_diagram_svg",
    "layer_symbol_for",
    "load_design",
    "load_manifest",
    "load_structure",
    "op_by_name",
    "pair_descriptor",
    "parse_design",
    "parse_layer_target",
    "parse_pair_target",
    "parse_structure",
    "save_design",
    "save_structure",
    "save_svg",
    "striped_faces",
    "translation_lattices",
    "validate_pair",
    "verify_catalog",
    "__version__",
]
