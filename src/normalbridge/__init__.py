"""normalbridge: a desk-scale lab for normal-bridged 3D generation.

Modules
-------
tensorcore  reverse-mode autodiff, layers, AdamW, seeded RNG, checkpoints
freq        2-D spectra, radial power profiles, per-frequency SNR curves
maps        heightfields, normal maps and their file encodings
toydata     procedural shaded-scene generator with real/synthetic label domains
nirne       dual-stream noise-injected normal regressor and its training stages
geom        meshes, multi-view normal rasterization, sharp-edge statistics
metrics     normal angle error, Canny/dilate edge masks, sharp normal error
"""

__version__ = "0.1.0"
