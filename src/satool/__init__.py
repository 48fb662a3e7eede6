"""satool: head-wise control for block-sparse top-p attention on synthetic traces."""

__version__ = "0.1.0"

from .blocksparse import (  # noqa: F401
    BlockGrid,
    BlockMask,
    BlockScores,
    block_scores,
    changed_block_ratio,
    mask_iou,
    top_p_select,
)
from .trace import DenoiseTrace, TraceConfig, generate_trace, read_trace, write_trace  # noqa: F401
from .surrogate import ForwardPipeline, SurrogateModel  # noqa: F401
