"""Dual collaborative knowledge-graph recommender.

Builds a user-side and an item-side knowledge graph from the same
interactions, encodes both with relation-space translations, propagates
entity representations through attention-weighted layers, and ranks
items for users with a pairwise objective.  See the README for the
pipeline and the CLI.
"""

__version__ = "0.1.0"
