"""acre: a desk-scale audio-caption retrieval engine.

Audio and text are embedded by frozen toy encoders (or external embedding
dumps), projected into a shared space by two trainable linear heads, aligned
with a symmetric contrastive loss, and ranked by cosine similarity.
"""

import importlib

from . import dsp, encoder, ingest, retrieval, space
from .seeding import derive_seed

__all__ = ["cli", "dsp", "encoder", "ingest", "retrieval", "space", "derive_seed"]

__version__ = "0.1.0"


def __getattr__(name: str):
    # cli is imported on first use, not with the package: `python -m acre.cli`
    # would otherwise find acre.cli already imported and warn before running it
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
