"""Skew convolutional and skew trellis codes over finite fields."""

from .analysis import SimReport, analyze_code, run_simulation
from .code import Sequence, SkewConvCode, SkewTrellisCode
from .codespec import (
    CodeSpecError,
    code_to_dict,
    dumps_code,
    format_sequence,
    load_code,
    loads_code,
    parse_sequence,
)
from .decoder import DecodeResult, QSChannel, bcjr, viterbi, viterbi_batch
from .dual import SyndromeFormer, SyndromeFormerNotFound, syndrome_former, verify_duality
from .field import FieldElement, FiniteField
from .skewpoly import SkewPoly, SkewPolyMatrix
from .skewtrellis import LinearityReport, build_trellis_right, linearity_report
from .trellis import (
    Trellis,
    build_trellis,
    export_dot,
    is_catastrophic,
    unit_memory_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "CodeSpecError",
    "DecodeResult",
    "FieldElement",
    "FiniteField",
    "LinearityReport",
    "QSChannel",
    "Sequence",
    "SimReport",
    "SkewConvCode",
    "SkewPoly",
    "SkewPolyMatrix",
    "SkewTrellisCode",
    "SyndromeFormer",
    "SyndromeFormerNotFound",
    "Trellis",
    "analyze_code",
    "bcjr",
    "build_trellis",
    "build_trellis_right",
    "code_to_dict",
    "dumps_code",
    "export_dot",
    "format_sequence",
    "is_catastrophic",
    "linearity_report",
    "load_code",
    "loads_code",
    "parse_sequence",
    "run_simulation",
    "syndrome_former",
    "unit_memory_bounds",
    "verify_duality",
    "viterbi",
    "viterbi_batch",
]
