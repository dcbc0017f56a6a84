"""Benchmark harness regenerating the paper's evaluation (§V.B–C).

* :mod:`repro.bench.harness` — connector throughput measurement ("the
  number of global execution steps the connector made in [a time window];
  every task just tried to send and receive as often as possible");
* :mod:`repro.bench.fig12` — the connector experiment series: 18 connectors
  × N ∈ {2,…,64}, existing vs. new approach, classified into the paper's
  four bins (Fig. 12's pie + bar charts);
* :mod:`repro.bench.fig13` — the NPB experiment series: original vs.
  Reo-based run times (Fig. 13's panels);
* command line: ``python -m repro fig12`` / ``python -m repro fig13``, the
  one driver of each figure; ``--check`` fails the run on each of the
  paper's claims it breaks (CI ``bench-smoke`` runs both).
"""
