"""Max-backup tree search with diversity-constrained expansion, comparative
sibling judging, and a bandit regret laboratory for the residual-variance
policy family.

``import alphauct`` loads only what a search or bandit caller runs: the
search core and the bandit runs and fits (``regret``).  Import the
acceptance suite (``alphauct.verify``, with ``ablation``), the Freedman
check and ratio CIs (``alphauct.lab``), ``manifest`` and ``cli``
explicitly.  The rest loads on first use: ``kernel``, with the PCG64 row
set-up, on a process's first bandit run; the fixture parser (``fixture``)
on the first ``load_fixture`` or ``parse_fixture`` call; and
``concurrent.futures`` with the first thread pool.
"""

__version__ = "0.2.0"

from .backup import MAX, MEAN, backpropagate, q_for_selection
from .envs import (BanditSpec, GuiGraphEnv, GuiGraphSpec, Observation,
                   ProposerParams, bandit_pull, builtin_fixtures, load_fixture,
                   parse_fixture, residual_noise)
from .expansion import (admit_candidates, chunk_key, expand_node, lexical_key,
                        make_chunk, normalize_action)
from .judging import (JudgeFailure, SimJudge, SimJudgeSpec,
                      judge_comparative, judge_independent_set)
from .proposer import SimProposer, TaskInfeasible, proposer_from_fixture
from .regret import (BoundReport, RegretCurve, bound_for_spec, fit_log_regret,
                     per_seed_log_slopes, run_bandit_experiment,
                     theorem1_bound)
from .search import (SearchConfig, SearchResult, extract_best_path,
                     position_env, run_search, search_fixture)
from .selection import select_leaf
from .tree import ActionChunk, EvalEvent, NodeRecord, SearchTree
