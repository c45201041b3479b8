"""Compressed-sampling no-reference image quality assessment, desk scale.

Block-based compressive measurements of an image feed a ratio-adaptive
token embedding, a small post-norm transformer encoder with windowed
refinement, and a dual-branch weighted scoring head; the whole pipeline is
trainable end to end on a from-scratch reverse-mode tape.
"""

from . import numerics
from .data import ManifestRecord, generate_toy_dataset, read_manifest, split_records
from .embedding import add_position, bypass_embed, embed
from .encoder import encode, encoder_block, msa, window_msa, window_refine
from .head import aggregate, score, weight_map
from .metrics import plcc, srcc
from .numerics import AdamState, GradTape, Tensor, adam_step
from .pipeline import (
    ModelConfig,
    ModelState,
    TrainSettings,
    evaluate,
    forward,
    init_model,
    load_model,
    load_pretrained_csm,
    predict_image,
    predict_records,
    save_model,
    save_pretrained_csm,
    train,
)
from .pnm import read_image, write_pgm
from .sampling import (
    BlockGrid,
    MeasurementSet,
    SamplingMatrix,
    csnet_reconstruct,
    measurement_count,
    pretrain_csm,
    sample,
    sample_conv,
    split_blocks,
)

__version__ = "0.1.0"
