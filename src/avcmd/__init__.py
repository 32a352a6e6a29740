"""Audio-gestural command recognition toolkit.

Gesture classification with dense trajectories, visual-word encodings, and
chi-square kernel SVMs; spoken-command matching with MFCC features and
dynamic time warping; an online layer that localizes activity, fuses the two
modalities, and drives a dialogue FSM -- validated end to end on procedurally
generated ground-truth corpora.
"""

from .frames import Clip, GrayFrame, Modality, Sensor, log_depth
from .flow import FramePyramid, dense_flow
from .trajectories import TrackerParams, Trajectory, TrajectorySet, descriptor_traj, sample_points, track
from .encoding import (
    BovwHist,
    Channel,
    Codebook,
    bovw_encode,
    multichannel_gram,
    train_codebook,
)
from .svm import KernelSvmModel, Prediction, train_kernel_svm, train_kernel_svms
from .mfcc import MfccSeq, mfcc
from .audio import (
    CommandGrammar,
    Hypothesis,
    NBest,
    SpeakerTransform,
    adapt_speaker,
    classify_command,
    default_grammar,
    dtw_align,
    dtw_distance,
    keyword_gate,
)
from .detector import ActivityDetector, SegmentEvent, activity_score, detect_segments
from .fsm import FsmState, StateKind, fsm_step
from .session import AudioEvent, FusionDecision, FusionSource, SessionLog, SessionStep, fuse, run_session
from .gesture import GesturePipeline, train_gesture_pipeline
from .metrics import LooSample, Rate, accuracy, first_attempt_curve, loo_cv, mcrr, user_performance
from .vocabulary import Command, MotionPattern
from .config import PipelineConfig, load_config

__version__ = "0.1.0"
