"""Defaults and choices the CLI parser needs, kept free of numpy so that
``--help`` and ``--version`` load none. The owning modules re-export them."""

F0_FLOOR_HZ = 50.0
F0_CEIL_HZ = 600.0
DEFAULT_FRAME_MS = 40.0
DEFAULT_HOP_MS = 10.0
DEFAULT_YIN_THRESHOLD = 0.15
DEFAULT_FEATURE_POINTS = 20

DEFAULT_BETA = 0.5

LINKAGES = ("sl", "cl", "ga", "wa", "uc", "wc", "mv")
METRICS = ("tone2vec", "categorical")
