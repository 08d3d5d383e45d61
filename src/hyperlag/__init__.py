"""Lagrangians of uniform hypergraphs, forbidden-configuration checks,
and exhaustive Turan-type searches."""

from .hypergraph import (
    Edge,
    Hypergraph,
    VertexPartition,
    blowup,
    complete,
    complete_minus,
    compress,
    covers_pairs,
    equivalence_classes,
    extension,
    induced,
    is_left_compressed,
    linear_path,
    link_diff,
    matching,
    named,
    new,
    relabel,
    turan_blowup,
    turan_count,
)
from .hgio import HgParseError, emit_hg, from_json_obj, load, parse_hg, save, to_json_obj
from .lagrangian import (
    F3_COMPLETION_BOUND,
    ClosedForm,
    OptimizerConfig,
    OptimumResult,
    WeightVector,
    closed_form,
    densify,
    evaluate,
    gradient,
    is_dense,
    maximize,
    motzkin_straus,
)
from .freeness import (
    EmbeddingMap,
    contains,
    contains_core,
    is_free,
    left_compress_loop,
)
from .search import (
    CheckpointError,
    DensityReport,
    DensityRun,
    SearchStats,
    TuranResult,
    TuranRun,
    canonical_form,
    checkpoint_resume,
    checkpoint_save,
    density_evidence,
    enumerate_all,
    enumerate_left_compressed,
    isomorphic,
    turan_number,
)
from .verify import run_suite

__version__ = "0.1.0"
