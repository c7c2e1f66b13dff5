"""
Command-line interface.

Subcommands: optimize, sweep {delay-ee, rel-beta, sjnr-n}, mdl-oracle.
Exit codes: 0 success, 1 config or usage error, 2 infeasible/unstable
result, 3 internal error.
"""

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .config import PRESETS, ConfigError, load_config
from .sweeps import (UNSTABLE_MARKER, run_optimize, sweep_delay_ee,
                     sweep_reliability_vs_beta, sweep_sjnr_vs_n,
                     write_sweep_csv)
from .traffic import MAX_ARRIVALS, FrameParams, mean_delay, simulate_md1, TrafficParams

# sweep kind -> runner; the CLI's choices and its dispatch
_SWEEPS = {
    "delay-ee": sweep_delay_ee,
    "rel-beta": sweep_reliability_vs_beta,
    "sjnr-n": sweep_sjnr_vs_n,
}


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: argparse's own 2 means infeasible/unstable
    here. Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="config file (INI sections; empty means defaults)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the RNG seed")
    common.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory")
    common.add_argument("--preset", choices=tuple(PRESETS), default=None,
                        help="scale preset applied below the config file")

    parser = _Parser(
        prog="risjam",
        description="Active-RIS uplink NOMA simulator and energy-efficiency "
                    "optimizer under jamming")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("optimize", parents=[common],
                   help="run the GA and persist convergence trace + solution")
    sweep = sub.add_parser("sweep", parents=[common], help="run a metric sweep")
    sweep.add_argument("kind", choices=tuple(_SWEEPS))
    oracle = sub.add_parser("mdl-oracle", parents=[common],
                            help="check the closed-form M/D/1 delay against a "
                                 "discrete-event simulation")
    oracle.add_argument("--arrivals", type=int, default=1_000_000)
    oracle.add_argument("--rho", default="0.1,0.3,0.5,0.8",
                        help="comma-separated utilization targets")
    return parser


def _cmd_optimize(cfg) -> int:
    result = run_optimize(cfg)
    eta = result.best_eta
    print(f"feasible: {result.feasible}")
    print(f"energy efficiency: {'n/a' if eta is None else f'{eta:.6g} bits/J'}")
    print(f"generations: {result.generations_run}")
    print(f"outputs in {cfg.output_dir}")
    return 0 if result.feasible else 2


def _cmd_sweep(cfg, kind: str) -> int:
    result = _SWEEPS[kind](cfg)
    path = write_sweep_csv(result, cfg.output_dir / f"{kind}.csv")
    print(f"{len(result.rows)} rows -> {path}")
    if kind == "delay-ee":
        delay_column = result.columns.index("mean_delay_s")
        if all(row[delay_column] == UNSTABLE_MARKER for row in result.rows):
            print("every grid point is unstable", file=sys.stderr)
            return 2
    return 0


def _rho_targets(rho_spec: str) -> list[float]:
    """The --rho utilization targets; each must be a number in (0, 1)."""
    targets = []
    for part in rho_spec.split(","):
        try:
            rho = float(part)
        except ValueError:
            raise ConfigError(f"--rho: {part.strip()!r} is not a number") from None
        if not 0 < rho < 1:  # also rejects nan
            raise ConfigError(f"--rho: {rho!r} is outside (0, 1)")
        targets.append(rho)
    return targets


def _cmd_mdl_oracle(cfg, arrivals: int, rho_spec: str) -> int:
    targets = _rho_targets(rho_spec)
    if not 1 <= arrivals <= MAX_ARRIVALS:
        raise ConfigError(f"--arrivals: {arrivals} is outside 1..2**26")
    frame = FrameParams(cfg.header_time, cfg.bandwidth, cfg.blocklength)
    service = cfg.traffic.retransmissions * frame.duration
    passed = True
    print(f"service time {service:.6g} s ({cfg.traffic.retransmissions} replicas)")
    for i, rho in enumerate(targets):
        rate = rho / service
        analytic = mean_delay(frame, TrafficParams((rate,), cfg.traffic.retransmissions), 1)
        simulated = simulate_md1(rate, service, arrivals, seed=cfg.seed + i)
        err = abs(simulated - analytic) / analytic
        passed = passed and err <= 0.02  # false for a NaN error too
        print(f"rho={rho:4.2f}  analytic={analytic:.6e}  simulated={simulated:.6e}  "
              f"rel_err={err:.4%}")
    if not passed:
        print("discrete-event check failed (relative error above 2%)",
              file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, preset=args.preset, seed=args.seed,
                          output_dir=args.out)
        if args.command == "optimize":
            return _cmd_optimize(cfg)
        if args.command == "sweep":
            return _cmd_sweep(cfg, args.kind)
        if args.command == "mdl-oracle":
            return _cmd_mdl_oracle(cfg, args.arrivals, args.rho)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, OverflowError) as exc:
        # an OverflowError is a config whose channels or SJNR leave the float
        # range, or whose GA population is too large to allocate
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
