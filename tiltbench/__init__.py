"""tiltbench — the repository's one benchmark.

Four workloads (``oneshot_apps``, ``session_ysb``, ``session_deep_window``,
``service_fleet``) driven only through the calls users make
(``TiltEngine.run``, ``session.tick``, ``QueryService.submit/ingest/step``),
four end-to-end metrics per workload and a traced pass that attributes the
time to layers.  See ``tiltbench/README.md``; the contract the driver checks
is ``BENCHMARK.json`` at the repository root.

Run ``python3 tiltbench/run.py --help`` (or ``python -m tiltbench`` with the
repository root on ``sys.path``).
"""
