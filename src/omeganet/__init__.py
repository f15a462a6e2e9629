"""omeganet: dual-supervised small-object segmentation with a self-contained engine."""

__version__ = "0.1.0"
