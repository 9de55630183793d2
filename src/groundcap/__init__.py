"""groundcap: build and evaluate grounded video caption datasets.

The library covers three concerns: ingesting frame-level grounding output
(boxes or masks) into validated records, orchestrating the caption
aggregation and tracking-by-language stages over a chat-completion endpoint,
and scoring predicted grounded captions with captioning and grounding
metrics at frame and video level.
"""

from .boxes import BoundingBox, denormalize_box, iou, normalize_box
from .captions import (
    MalformedCaptionError,
    PhraseSpan,
    TaggedCaption,
    parse_tagged_caption,
    render_tagged_caption,
)
from .config import PipelineConfig
from .ingest import (
    EmptyMaskError,
    FrameGrounding,
    FrameObject,
    SchemaError,
    load_predictions,
    mask_to_box,
    parse_frame_grounding,
    parse_video_annotation,
    read_annotations,
    serialize_video_annotation,
    validate_annotation_dict,
)
from .llm import (
    ChatMessage,
    HttpChatClient,
    PhraseAssignment,
    ResponseRejection,
    aggregate_video,
    build_stage2_prompt,
    build_stage3_prompt,
    parse_stage2_response,
    parse_stage3_response,
    track_by_language,
)
from .metrics import (
    cider,
    evaluate,
    meteor_lite,
    phrase_similarity,
    stem,
    tokenize,
)
from .mockllm import MockLlmServer, request_hash
from .pipeline import annotate_video, run_pipeline
from .records import (
    Event,
    ObjectTrack,
    RecordValidationError,
    SvoFrame,
    SvoRelation,
    VideoAnnotation,
)
from .stats import dataset_stats
from .svo import extract_svo, pos_tag, render_svo_block
from .tubes import assemble_tracks, build_record, derive_presence

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "ChatMessage",
    "EmptyMaskError",
    "Event",
    "FrameGrounding",
    "FrameObject",
    "HttpChatClient",
    "MalformedCaptionError",
    "MockLlmServer",
    "ObjectTrack",
    "PhraseAssignment",
    "PhraseSpan",
    "PipelineConfig",
    "RecordValidationError",
    "ResponseRejection",
    "SchemaError",
    "SvoFrame",
    "SvoRelation",
    "TaggedCaption",
    "VideoAnnotation",
    "aggregate_video",
    "annotate_video",
    "assemble_tracks",
    "build_record",
    "build_stage2_prompt",
    "build_stage3_prompt",
    "cider",
    "dataset_stats",
    "denormalize_box",
    "derive_presence",
    "evaluate",
    "extract_svo",
    "iou",
    "load_predictions",
    "mask_to_box",
    "meteor_lite",
    "normalize_box",
    "parse_frame_grounding",
    "parse_stage2_response",
    "parse_stage3_response",
    "parse_tagged_caption",
    "parse_video_annotation",
    "phrase_similarity",
    "pos_tag",
    "read_annotations",
    "render_svo_block",
    "render_tagged_caption",
    "request_hash",
    "run_pipeline",
    "serialize_video_annotation",
    "stem",
    "tokenize",
    "track_by_language",
    "validate_annotation_dict",
]
