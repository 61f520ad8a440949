"""Sensor-trajectory encoding with sparse latent dynamics discovery."""

__version__ = "0.1.0"

from .data import Field, SensorSet, WindowedDataset  # noqa: F401
from .shred import ShredConfig, ShredModel, train  # noqa: F401
from .sindy import LibrarySpec, SindyModel, fit_stlsq  # noqa: F401
