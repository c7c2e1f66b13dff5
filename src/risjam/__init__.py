"""
Deterministic simulator and constrained optimizer for an active-RIS assisted
uplink NOMA network under a jamming attack, in the finite-blocklength URLLC
regime: SJNR -> BLER -> reliability -> M/D/1 delay -> energy efficiency,
plus a genetic-algorithm energy-efficiency maximizer and a sweep harness.
"""

from ._version import __version__
from .channel import (Direction, LinkScenario, RisGeometry, array_response,
                      element_positions, jammer_direct_channel, ris_bs_channel,
                      ris_jammer_channel, ris_ue_channel, wave_vector)
from .config import (ConfigError, ExperimentConfig, SweepSpec, load_config,
                     square_geometry)
from .link import (BeamformConfig, NoiseConfig, bler, co_phasing_phases,
                   q_function, reliability, replica_success, sjnr_all)
from .model import MetricsBlock, MetricsReport, SystemModel
from .optimizer import (ConstraintSet, DecisionBlock, DecisionVector,
                        GaSettings, OptimizationResult, decode, decode_block,
                        evaluate_fitness, genome_dimension, rank, run_ga,
                        score_block)
from .sweeps import (SweepResult, build_model, read_solution_record,
                     read_sweep_csv, run_optimize, solution_record,
                     sweep_delay_ee, sweep_reliability_vs_beta, sweep_sjnr_vs_n,
                     uniform_beta_sjnr, write_solution_record, write_sweep_csv)
from .traffic import (FrameParams, TrafficParams, UnstableQueueError,
                      energy_efficiency, mean_delay, simulate_md1,
                      utilization)

__all__ = [name for name in dir() if not name.startswith("_")]
