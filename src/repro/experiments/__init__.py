"""One module per paper table/figure, each a registered scenario.

Importing this package registers every experiment's declarative
:class:`~repro.engine.scenario.Scenario` and presenter with
:mod:`repro.engine.registry` (that is what ``registry.load_all`` relies
on).  Run one with ``repro run <name>`` — its grid and ``--xs`` /
``--pool`` / ``--param`` overrides replace per-experiment flags — or from
Python with ``Engine().run(module.SCENARIO.override(...))``; each module
keeps the converter (``points``, ``to_result``, ...) that turns the
engine's result into its figure's rows.
"""

from repro.experiments import (  # noqa: F401  (import-time registration)
    fig01_survey,
    fig04_hose_failure,
    fig07_bmax_sweep,
    fig08_load_sweep,
    fig09_oversub_sweep,
    fig10_ablation,
    fig11_wcs_guarantee,
    fig12_opportunistic_ha,
    fig13_enforcement,
    failure_sweep,
    inference_ami,
    runtime_scaling,
    service_loop,
    table1_reserved_bw,
    temporal_savings,
)
