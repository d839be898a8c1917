"""Max-backup tree search with diversity-constrained expansion, comparative
sibling judging, and a bandit regret laboratory for the residual-variance
policy family."""

from .backup import MAX, MEAN, backpropagate, q_for_selection
from .envs import (BanditSpec, GuiGraphEnv, GuiGraphSpec, Observation,
                   bandit_pull, builtin_fixtures, load_fixture, parse_fixture,
                   residual_noise)
from .expansion import (NormalizationContext, admit_candidates, chunk_key,
                        expand_node, lexical_key, make_chunk, normalize_action)
from .judging import (JudgeFailure, SimJudge, SimJudgeSpec,
                      judge_comparative, judge_independent_set)
from .manifest import PACKAGE_VERSION as __version__
from .proposer import ProposerSpec, SimProposer, TaskInfeasible, proposer_from_fixture
from .regret import (BoundReport, MdsSpec, RegretCurve, bound_for_spec,
                     efficiency_ratio_experiment, fit_log_regret,
                     freedman_empirical_check, freedman_radius,
                     per_seed_log_slopes, run_bandit_experiment,
                     slope_ratio_ci, theorem1_bound)
from .search import (SearchConfig, SearchResult, SimReflector,
                     extract_best_path, position_env, run_search,
                     search_fixture)
from .selection import (SelectionPolicy, alpha_uct_score, select_child,
                        select_leaf, uct_score)
from .tree import ActionChunk, EvalEvent, NodeRecord, SearchTree
from .verify import CRITERION_NAMES, run_criteria
