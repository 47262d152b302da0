"""batsim: Monte Carlo batting simulation for situational hitting strategies.

The pipeline, in dependency order: ability vectors and their rate stats
(:mod:`batsim.abilities`), base-out transition tables and run expectancy
(:mod:`batsim.transitions`), lineups and Monte Carlo simulation
(:mod:`batsim.simulation`, :mod:`batsim.mcengine`), per-state strategy
policies (:mod:`batsim.strategies`), the strategy conversion model
(:mod:`batsim.conversion`), parameter sweeps (:mod:`batsim.sweeps`), and
bundled defaults plus the CLI (:mod:`batsim.defaults`, :mod:`batsim.cli`).
"""

from .abilities import (
    LEAGUE_AVERAGE,
    AbilityVector,
    AbilityVectorError,
    SlashTargets,
    dump_ability_vector,
    fit_ability_vector,
    load_ability_vector,
    onbase_share,
    validate,
    woba,
)
from .config import ConfigError, ExperimentConfig, dump_config, load_config
from .conversion import (
    ConversionError,
    ConverterParams,
    PairDataset,
    build_pair_dataset,
    convert,
    forward,
    gradient_check,
    init_params,
    load_params,
    project_probabilities,
    save_params,
    synthesize_players,
    train,
)
from .defaults import (
    bundled_lineup_targets,
    default_converter_params,
    default_transition_table,
    fitted_lineup,
)
from .simulation import (
    Lineup,
    RunStats,
    load_histogram_csv,
    monte_carlo,
)
from .strategies import (
    Policy,
    StrategyChoice,
    StrategyTriple,
    always_normal,
    build_triple,
    fixed_policy,
    threshold_policy,
)
from .sweeps import (
    SweepRow,
    default_theta_grids,
    mean_batter,
    run_baseline,
    run_strategy_grid,
    run_threshold_grid,
    total_variation,
    write_sweep_csv,
)
from .synthdata import synthesize_event_log
from .transitions import (
    GameState,
    Outcome,
    RunExpectancyTable,
    TransitionTable,
    build_table,
    parse_event_log,
    run_expectancy,
    simple_transition,
)

__version__ = "0.1.0"

__all__ = [
    "LEAGUE_AVERAGE",
    "AbilityVector",
    "AbilityVectorError",
    "SlashTargets",
    "dump_ability_vector",
    "fit_ability_vector",
    "load_ability_vector",
    "onbase_share",
    "validate",
    "woba",
    "ConfigError",
    "ExperimentConfig",
    "dump_config",
    "load_config",
    "ConversionError",
    "ConverterParams",
    "PairDataset",
    "build_pair_dataset",
    "convert",
    "forward",
    "gradient_check",
    "init_params",
    "load_params",
    "project_probabilities",
    "save_params",
    "synthesize_players",
    "train",
    "bundled_lineup_targets",
    "default_converter_params",
    "default_transition_table",
    "fitted_lineup",
    "Lineup",
    "RunStats",
    "load_histogram_csv",
    "monte_carlo",
    "Policy",
    "StrategyChoice",
    "StrategyTriple",
    "always_normal",
    "build_triple",
    "fixed_policy",
    "threshold_policy",
    "SweepRow",
    "default_theta_grids",
    "mean_batter",
    "run_baseline",
    "run_strategy_grid",
    "run_threshold_grid",
    "total_variation",
    "write_sweep_csv",
    "synthesize_event_log",
    "GameState",
    "Outcome",
    "RunExpectancyTable",
    "TransitionTable",
    "build_table",
    "parse_event_log",
    "run_expectancy",
    "simple_transition",
    "__version__",
]
