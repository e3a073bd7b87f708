#!/usr/bin/env python3
"""Write the program's outputs to one directory, one file per command.

Two trees that should give the same answers give byte-identical
directories, so a claim of unchanged output is one `diff -r`:

    PYTHONPATH=<old checkout>/src python3 scripts/snapshot_outputs.py --out-dir A
    PYTHONPATH=src python3 scripts/snapshot_outputs.py --out-dir B
    diff -r A B

The commands are `fwt solve` variants, the evaluation sweeps, three seeded
`fwt simulate` runs with their event logs, and every `fwt check` suite,
written as its pass flag and detail lines. Every heterogeneous-cost path
runs: `solve_hetero.json` (ratio 5 at the defaults, where nobody
generates), `simulate_hetero.json` (ratio 5 at the `cost_ratio` sweep's
utilities, where type H generates), the `cost_ratio` sweep, and
`sweep_cost_ratio_free_storage.csv`, the same sweep at C_s = 0, whose rows
carry the hetero error. `oracle.txt` holds the `repr` of every field of the
welfare grid oracle's result at 50 points for `prop2_draws(0)`,
`prop2_draws(1, 12, 13)` and the defaults, which the checks print only to
six digits. `stage2.txt` holds the `repr` of every field of
`fwt.user_game.sne_select`'s outcome, or the class and message of what it
raised, over a fixed list of menus, taxes and parameters that reach all
three kinds of equilibrium, a refused low fee, gamma = 0, C_s = 0, both
role assignments and the optimal mechanism at a gamma whose `gamma ** 2`
and `gamma * gamma` differ. `sim.txt` holds the `repr` of every field but
the event log of `fwt.sim.run` at seed 1, 3 replications and a 200 s
horizon, arrays as lists, on each Lemma-1 profile, untaxed, and on the
optimal mechanism's menu, tax and equilibrium profile at the defaults and
at 1000 users per type: unlike the `fwt simulate` runs, whose users all
pay the low fee, the Lemma-1 profiles serve both fee classes, and the two
taxed cases pin the tax totals at full precision. `exit_codes.txt` holds,
for each argv of a fixed list of failing inputs, the exit code and the last
line of stderr of `python -m fwt.cli`, run in a subprocess in the output
directory, so that a traceback is recorded rather than fatal and a change
of error class shows. Only `fwt.cli.main`,
`fwt.checks.run_suite`, `fwt.checks.prop2_draws`,
`fwt.checks.lemma1_profiles`, `fwt.mechanism.optimal_mechanism` (its
`menu`, `tax` and `outcome.profile`),
`fwt.mechanism.unconstrained_optimum_oracle`, `fwt.model.FeeMenu`,
`fwt.model.SystemParams`, `fwt.model.TaxVector`, `fwt.sim.SimConfig`,
`fwt.sim.run` and `fwt.user_game.sne_select` are used, so the script runs
against any tree that has them.
"""
import argparse
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import fwt
from fwt.checks import SUITES, lemma1_profiles, prop2_draws, run_suite
from fwt.cli import main as fwt_main
from fwt.mechanism import optimal_mechanism, unconstrained_optimum_oracle
from fwt.model import FeeMenu, SystemParams, TaxVector
from fwt.sim import SimConfig, run
from fwt.user_game import sne_select
from run_evaluation_sweeps import COST_RATIO_PARAMS, STEPS

# (output file, fwt argv); "{events}" becomes the path of the file's event log
COMMANDS = [
    ("solve.json", ["solve"]),
    ("solve_uniform.json", ["solve", "--tax-split", "uniform"]),
    ("solve_gamma0.json", ["solve", "--param", "impatience=0"]),
    ("solve_case1.json", ["solve", "--param", "utility_high=5e-4",
                          "--param", "utility_low=2.5e-4"]),
    ("solve_hetero.json", ["solve", "--hetero", "ratio=5"]),
    ("solve_one_high_user.json", ["solve", "--param", "n_users_high=1"]),
]
COMMANDS += [
    (f"sweep_{axis}.csv", ["sweep", "--axis", axis, "--steps", str(steps)]
     + (COST_RATIO_PARAMS if axis == "cost_ratio" else []))
    for axis, steps in STEPS.items()
]
COMMANDS += [
    ("sweep_n_users_paper.csv", ["sweep", "--axis", "n_users", "--paper-scale"]),
    ("simulate.json", ["simulate", "--seed", "1", "--replications", "3",
                       "--horizon", "2000", "--events", "{events}"]),
    ("simulate_uniform.json", ["simulate", "--seed", "1", "--replications", "3",
                               "--horizon", "2000", "--tax-split", "uniform",
                               "--events", "{events}"]),
    # at the cost_ratio sweep's utilities type H generates under ratio 5
    ("simulate_hetero.json", ["simulate", "--seed", "1", "--replications", "3",
                              "--horizon", "2000", "--hetero", "ratio=5",
                              "--events", "{events}"] + COST_RATIO_PARAMS),
    # C_s = 0 leaves no cheaper tier: every row carries the hetero error
    ("sweep_cost_ratio_free_storage.csv", ["sweep", "--axis", "cost_ratio", "--steps", "3",
                                           "--param", "storage_cost_per_byte=0"]
     + COST_RATIO_PARAMS),
]
# argv that fail: faults of the program first, then invalid inputs; paths
# are relative to the output directory, where none of them exists
FAILING = [
    ["solve", "--param", "impatience=1e-36"],
    ["solve", "--param", "block_rate=1e308"],
    ["solve", "--param", "mean_tx_size=1e-320"],
    ["sweep", "--axis", "gamma", "--range", "0:1e-36", "--steps", "3"],
    ["solve", "--param", "n_users_high=0"],
    ["solve", "--param", "bogus=1"],
    ["solve", "--param", "impatience=abc"],
    ["solve", "--param", "nonsense"],
    ["solve", "--hetero", "ratio=abc"],
    ["solve", "--hetero", "ratio=0.5"],
    ["solve", "--hetero", "ratio=inf"],
    ["solve", "--hetero", "ratio=1e308", "--param", "storage_cost_per_byte=2"],
    ["solve", "--config", "missing.cfg"],
    ["solve", "--out", "missing/solve.json"],
    ["sweep", "--axis", "gamma", "--range", "0:nan"],
    ["simulate", "--warmup", "0.9"],
    ["simulate", "--seed", "-1"],
    ["simulate", "--events", "missing/e.csv"],
    ["check", "prop2", "--budget", "1"],
    ["check", "corollary2", "--seed", "0"],
]
CHECKS = sorted(SUITES)
ORACLE_POINTS = ([(f"prop2_draws(0)[{i}]", p) for i, p in enumerate(prop2_draws(0))]
                 + [(f"prop2_draws(1, 12, 13)[{i}]", p)
                    for i, p in enumerate(prop2_draws(1, 12, 13))]
                 + [("defaults", SystemParams())])


def _stage2_cases():
    """(label, menu, tax, params) for `stage2.txt`."""
    d = SystemParams()
    c_s, rho_low = d.storage_cost_per_byte, d.system_storage_per_byte
    priced_out = FeeMenu(rho_high=1.0, rho_low=rho_low)
    cheap_high = FeeMenu(rho_high=1.01 * rho_low, rho_low=rho_low)
    refused_low = FeeMenu(rho_high=2 * c_s, rho_low=0.25 * c_s)
    # a subsidy lifts L's net utility above H's: B = L
    b_is_low = TaxVector(p_ll=-1e-3 / (d.n_users_low - 1))
    nan_gamma = 0.0021120643256403206
    nan_point = SystemParams(n_users_high=1, n_users_low=1, n_miners=1, block_rate=1.0,
                             impatience=nan_gamma, mean_tx_size=8.5,
                             storage_cost_per_byte=0.0, utility_high=nan_gamma,
                             utility_low=nan_gamma)
    nan_fee = 0.00014908689357461086
    nan_tax = TaxVector(p_hl=-0.0012672385953841924, p_lh=-0.0012672385953841924)
    cases = [
        ("low fee, defaults", priced_out, TaxVector.zero(), d),
        ("high fee, defaults", cheap_high, TaxVector.zero(), d),
        ("no generation", FeeMenu(rho_high=2 * rho_low, rho_low=rho_low), TaxVector.zero(),
         SystemParams(utility_high=1e-6, utility_low=5e-7)),
        ("refused low fee", refused_low, TaxVector.zero(), d),
        ("both fees refused", FeeMenu(rho_high=0.5 * c_s, rho_low=0.25 * c_s),
         TaxVector.zero(), d),
        ("gamma = 0, low fee", priced_out, TaxVector.zero(), SystemParams(impatience=0.0)),
        ("gamma = 0, cheap high fee", cheap_high, TaxVector.zero(),
         SystemParams(impatience=0.0)),
        ("gamma = 0, refused low fee", refused_low, TaxVector.zero(),
         SystemParams(impatience=0.0)),
        ("C_s = 0, fee 0", FeeMenu(rho_high=1e-5, rho_low=0.0), TaxVector.zero(),
         SystemParams(storage_cost_per_byte=0.0)),
        ("B = L, low fee", priced_out, b_is_low, d),
        ("B = L, high fee", cheap_high, b_is_low, d),
        ("one high user", priced_out, TaxVector.zero(), SystemParams(n_users_high=1)),
        ("NaN rates", FeeMenu(rho_high=1.0, rho_low=nan_fee), nan_tax, nan_point),
    ]
    for label, params in [("defaults", d),
                          ("gamma = 6.192956855562239e-05",
                           SystemParams(impatience=6.192956855562239e-05))]:
        mech = optimal_mechanism(params)
        cases.append((f"optimal mechanism, {label}", mech.menu, mech.tax, params))
    return cases


STAGE2_CASES = _stage2_cases()


def _optimal_case(label, params):
    mech = optimal_mechanism(params)
    return label, params, mech.menu, mech.tax, mech.outcome.profile


# (label, params, menu, tax, profile)
SIM_CASES = ([(label, params, menu, TaxVector.zero(), profile)
              for label, params, menu, profile in lemma1_profiles()]
             + [_optimal_case("optimal mechanism, taxed, defaults", SystemParams()),
                _optimal_case("optimal mechanism, taxed, 1000 users per type",
                              SystemParams(n_users_high=1000, n_users_low=1000))])


def oracle_lines():
    for label, params in ORACLE_POINTS:
        result = unconstrained_optimum_oracle(params, grid_points=50)
        yield label + ": " + " ".join(f"{field.name}={getattr(result, field.name)!r}"
                                      for field in dataclasses.fields(result))


def stage2_lines():
    for label, menu, tax, params in STAGE2_CASES:
        try:
            outcome = sne_select(menu, tax, params)
        except Exception as exc:
            yield f"{label}: raised {type(exc).__name__}: {exc}"
            continue
        yield label + ": " + " ".join(f"{field.name}={getattr(outcome, field.name)!r}"
                                      for field in dataclasses.fields(outcome))


def sim_lines():
    for label, params, menu, tax, profile in SIM_CASES:
        report = run(SimConfig(params=params, menu=menu, tax=tax, profile=profile,
                               horizon=200.0, seed=1, replications=3))
        for field in dataclasses.fields(report):
            if field.name != "events":
                value = getattr(report, field.name)
                value = value.tolist() if hasattr(value, "tolist") else value
                yield f"{label}: {field.name}={value!r}"


def exit_code_lines(out_dir):
    # the subprocess imports the same fwt as this script, from any directory
    src = str(Path(fwt.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for cmd in FAILING:
        proc = subprocess.run([sys.executable, "-m", "fwt.cli", *cmd], cwd=out_dir, env=env,
                              capture_output=True, text=True)
        last = (proc.stderr.splitlines() or [""])[-1]
        yield f"fwt {' '.join(cmd)}: exit {proc.returncode}: {last}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, cmd in COMMANDS:
        path = out_dir / name
        events = str(path.with_name(path.stem + "_events.csv"))
        code = fwt_main([a.replace("{events}", events) for a in cmd] + ["--out", str(path)])
        if code:
            print(f"{name}: fwt {' '.join(cmd)} exited {code}", file=sys.stderr)
            return code
        print(path)
    for suite in CHECKS:
        path = out_dir / f"check_{suite}.txt"
        result = run_suite(suite)
        path.write_text("\n".join([f"passed: {result.passed}"] + result.details) + "\n")
        print(path)
    path = out_dir / "oracle.txt"
    path.write_text("\n".join(oracle_lines()) + "\n")
    print(path)
    path = out_dir / "stage2.txt"
    path.write_text("\n".join(stage2_lines()) + "\n")
    print(path)
    path = out_dir / "sim.txt"
    path.write_text("\n".join(sim_lines()) + "\n")
    print(path)
    path = out_dir / "exit_codes.txt"
    path.write_text("\n".join(exit_code_lines(out_dir)) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
