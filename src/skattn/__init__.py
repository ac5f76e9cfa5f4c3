"""skattn: static key attention token mixers on a self-contained autodiff
engine, with exact operation accounting and a toy training harness."""

from .autodiff import GradCheckResult, Module, Parameter, Tape, backward, grad_check
from .complexity import ComplexityReport, closed_form, count_ops, counting_config, emit_curves
from .errors import (AutodiffError, CheckpointError, ConfigError, DataError,
                     NumericsError, OracleError, ShapeError, SkattnError)
from .former import (Block, LayerNorm, Mlp, Model, ModelConfig, StageConfig,
                     build_model, canonical_kind, count_parameters, load_checkpoint,
                     save_checkpoint)
from .mixers import (ACTIVATIONS, KINDS, Attention, MixerConfig, MixerProperties, SepConv,
                     TokenMixer, build_mixer, mixer_properties)
from .tensor import (AttentionMaps, MacCounter, Rng, Tensor, attention, concat, conv2d_grouped,
                     dropout, finite_checks, gather_last, gelu, layer_norm, log_softmax_rows,
                     matmul, mean, relu, reshape, slice_axis, softmax_rows, transpose)
from .train import (AdamW, Dataset, RunLog, TrainConfig, clip_grad_norm,
                    cross_entropy, evaluate, load_idx_images, step, synth_dataset, train)

__version__ = "0.1.0"
