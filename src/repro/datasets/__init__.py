"""Dataset generators standing in for the paper's real-world graphs."""

from repro.datasets.synthetic import gnm_uncertain, planted_partition
from repro.datasets.ppi import PPIDataset, collins_like, gavin_like, krogan_like
from repro.datasets.collaboration import dblp_like
from repro.datasets.registry import DATASET_NAMES, load_dataset

__all__ = [
    "planted_partition",
    "gnm_uncertain",
    "PPIDataset",
    "collins_like",
    "gavin_like",
    "krogan_like",
    "dblp_like",
    "DATASET_NAMES",
    "load_dataset",
]
