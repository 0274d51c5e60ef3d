"""repro — reproduction of "Cache Side-Channel Attacks and
Time-Predictability in High-Performance Critical Real-Time Systems"
(Trilla, Hernandez, Abella, Cazorla; DAC 2018).

The package provides:

* randomized cache designs: Random Modulo, hashRP, RPCache, the
  Aciicmez XOR-index scheme and a deterministic baseline
  (:mod:`repro.cache`);
* the TSCache system — MBPTA-compliant random placement with
  per-process unique seeds (:mod:`repro.core`, :mod:`repro.rtos`);
* MBPTA: EVT pWCET estimation with i.i.d. admission tests
  (:mod:`repro.mbpta`);
* cache timing side-channel attacks: Bernstein, Prime+Probe,
  Evict+Time (:mod:`repro.attack`, :mod:`repro.crypto`);
* campaign orchestration: declarative experiment grids executed
  serially or across a process pool with bit-identical results and an
  on-disk result cache (:mod:`repro.campaigns`, :mod:`repro.reporting`).

Quickstart::

    from repro.core import BernsteinCaseStudy
    result = BernsteinCaseStudy("tscache", num_samples=20_000).run()
    print(result.report.summary_row("tscache"))
"""

__version__ = "1.0.0"
