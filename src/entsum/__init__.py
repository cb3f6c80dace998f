"""Entity summarization over RDF descriptions with a learned triple scorer.

The package turns an entity's RDF description into word-embedding vectors,
scores every candidate triple against the full description with a small
attention network, and picks the top-k triples as the summary.  Training
and evaluation follow a per-entity cross-validation protocol with ground
truth summaries from multiple annotators.
"""

from .embeddings import load_vec_file, manifest_vocabulary
