"""The library surface: the signature of every function that `milrank`
exports."""

import inspect

import milrank

# str(inspect.signature(f)) of every exported function.  A parameter is added
# or removed by editing this table as well.
SIGNATURES = {
    "ap_at_k": "(labels: 'Sequence[int]', scores: 'Sequence[float]', k: 'int') -> 'float'",
    "average_precision": "(labels: 'Sequence[int]', scores: 'Sequence[float]') -> 'float'",
    "backward":
        "(fwd: 'StackedForward', params: 'ModelParams', eps: 'float', variant: 'str' = 'max-max', ablate_mm: 'bool' = False, ablate_bcm: 'bool' = False) -> 'GradientSet'",
    "bce": "(y: 'float', label: 'int') -> 'float'",
    "evaluate_map":
        "(params: 'ModelParams', videos: 'Sequence[VideoRecord]', event: 'str', ablation: 'Ablation' = Ablation(no_audio=False, no_vision=False)) -> 'EvalReport'",
    "evaluate_top5_map":
        "(params: 'ModelParams', videos: 'Sequence[VideoRecord]', event: 'str', ablation: 'Ablation' = Ablation(no_audio=False, no_vision=False)) -> 'EvalReport'",
    "extract_highlights":
        "(segments: 'Sequence[ScoredSegment]', mode: 'str', k: 'Optional[int]' = None) -> 'Tuple[List[ScoredSegment], bool]'",
    "forward_bag":
        "(bag: 'Bag', params: 'ModelParams', ablation: 'Ablation' = Ablation(no_audio=False, no_vision=False)) -> 'BagForward'",
    "forward_stacked":
        "(vision: 'np.ndarray', audio: 'np.ndarray', params: 'ModelParams', ablation: 'Ablation' = Ablation(no_audio=False, no_vision=False), head: 'bool' = True) -> 'StackedForward'",
    "gen_synthetic": "(spec: 'SyntheticSpec', out_dir) -> 'DatasetIndex'",
    "init_params": "(config: 'ModelConfig', seed: 'int') -> 'ModelParams'",
    "load_checkpoint": "(path) -> 'Checkpoint'",
    "lr_at": "(epoch: 'int', config: 'TrainingConfig') -> 'float'",
    "mm_ranking_loss": "(ep, en, eps: 'float') -> 'float'",
    "read_feature_file":
        "(path, expect_dims: 'Optional[Tuple[int, int]]' = (512, 128)) -> 'Tuple[np.ndarray, np.ndarray]'",
    "read_manifest": "(path) -> 'DatasetIndex'",
    "sample_bag":
        "(video: 'VideoRecord', bag_size: 'int', rng: 'np.random.Generator') -> 'np.ndarray'",
    "save_checkpoint": "(path, ckpt: 'Checkpoint') -> 'None'",
    "score_video":
        "(video: 'VideoRecord', params: 'ModelParams', ablation: 'Ablation' = Ablation(no_audio=False, no_vision=False)) -> 'np.ndarray'",
    "sgd_step":
        "(params: 'ModelParams', grads: 'GradientSet', state: 'OptimizerState', lr: 'float', config: 'TrainingConfig') -> 'None'",
    "split_videos":
        "(index: 'DatasetIndex', interest_event: 'str', tau: 'float') -> 'Tuple[List[VideoRef], List[VideoRef]]'",
    "total_loss":
        "(fwd: 'StackedForward', eps: 'float', variant: 'str' = 'max-max', ablate_mm: 'bool' = False, ablate_bcm: 'bool' = False) -> 'LossBreakdown'",
    "train_event":
        "(index: 'datamod.DatasetIndex', interest_event: 'str', config: 'TrainingConfig', out_dir: 'Optional[Path]' = None, checkpoint_path: 'Optional[Path]' = None) -> 'Tuple[ModelParams, List[dict]]'",
    "variant_ranking_loss": "(ep, en, eps: 'float', variant: 'str') -> 'float'",
    "write_feature_file":
        "(path, vision: 'np.ndarray', audio: 'np.ndarray', expect_dims: 'Optional[Tuple[int, int]]' = (512, 128)) -> 'None'",
}


def test_signature_surface():
    exported = {
        name: str(inspect.signature(f)) for name, f in vars(milrank).items() if inspect.isfunction(f)
    }
    assert exported == SIGNATURES
