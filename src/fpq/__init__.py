"""Low-bit floating-point quantization toolkit.

Micro-FP codecs, dual-format quantization with offline grid search,
group-wise Hadamard rotation with a learnable per-channel smoothing
vector, and a bit-exact software model of a LUT-based FP4
multiply-accumulate datapath.
"""

from .formats import (
    E1M2,
    E2M1,
    E2M3,
    E3M0,
    E3M2,
    E3M4,
    E4M3,
    FORMATS,
    FpCode,
    FpFormat,
    decode,
    decode_bits,
    encode,
    get_format,
    grid_values,
    max_value,
    round_to_grid,
)
from .galt import (
    CalibrationSet,
    GaltProblem,
    LayerNormAffine,
    OptimizerState,
    OutlierSpec,
    adamw_step,
    build_calibration,
    fuse_lambda,
    fuse_lambda_weight,
    galt_grad,
    galt_loss,
    optimize_galt,
    synth_calibration,
)
from .hadamard import (
    HadamardConfig,
    apply_ght,
    fuse_weight_rotation,
    ght_flops,
    hadamard_matrix,
)
from .hwemu import (
    LutTables,
    build_address_lut,
    build_mul_lut,
    build_tables,
    dfq_lut_quantize,
    emu_dot,
    emu_gemm,
    lut_quantize,
)
from .quantize import (
    DfqResult,
    Granularity,
    IntFormat,
    QuantizedTensor,
    afpq_quantize,
    compute_scale,
    dequantize,
    dfq_quantize,
    dfq_search_format,
    quant_mse,
    quantize,
    rtn_int_quantize,
)
from .tensorfile import TensorData, TensorFileError, read_tensor, write_tensor

__version__ = "0.1.0"
