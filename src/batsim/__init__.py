"""batsim: Monte Carlo batting simulation for situational hitting strategies.

The pipeline, in dependency order: ability vectors and their rate stats
(:mod:`batsim.abilities`), base-out transition tables and run expectancy
(:mod:`batsim.transitions`), lineups and Monte Carlo simulation
(:mod:`batsim.simulation`, :mod:`batsim.mcengine`), per-state strategy
policies (:mod:`batsim.strategies`), the strategy conversion model
(:mod:`batsim.conversion`), parameter sweeps (:mod:`batsim.sweeps`), and
bundled defaults plus the CLI (:mod:`batsim.defaults`, :mod:`batsim.cli`).
"""
