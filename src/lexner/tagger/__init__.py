"""BiLSTM-CRF sequence tagger with hand-written reverse-mode gradients."""
from .crf import (  # noqa: F401
    bilou_allowed_transitions,
    crf_log_partition,
    crf_nll_and_grad,
    path_score,
    viterbi_decode,
)
from .gazetteer import Gazetteer, gazetteer_features  # noqa: F401
from .lstm import init_lstm_params, lstm_backward, lstm_forward  # noqa: F401
from .model import TaggerConfig, TaggerModel, load_checkpoint, save_checkpoint  # noqa: F401
from .train import sgd_step, train  # noqa: F401
