"""Dual collaborative knowledge-graph recommender.

Builds a user-side and an item-side knowledge graph from the same
interactions, encodes both with relation-space translations, propagates
entity representations through attention-weighted layers, and ranks
items for users with a pairwise objective.  See the README for the
pipeline and the CLI.
"""

from .config import RunConfig, load_config
from .errors import (
    CkgrecError,
    ConfigError,
    DimensionConflictError,
    FormatError,
    NumericFaultError,
    SamplingExhaustedError,
    ShapeError,
    TrainingDiverged,
    UnresolvedEntityError,
)
from .graph import (
    AlignmentMap,
    BipartiteGraph,
    CollaborativeKG,
    Vocab,
    build_bipartite,
    build_graphs,
)
from .ingest import (
    Ratings,
    SynthConfig,
    filter_min_interactions,
    parse_attribute_triples,
    parse_interactions,
    synth_generate,
    to_implicit,
)
from .model import BprBatch, DualModel, bpr_loss, build_model
from .propagation import (
    LayerStack,
    init_stack,
    propagate,
    propagate_backward,
)
from .rng import Rng
from .table import Interactions
from .training import Adam, TrainSettings, train
from .transr import EmbeddingTable, TripleBatch, init_table, kg_loss, sample_absent

__version__ = "0.1.0"
