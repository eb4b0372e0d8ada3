"""vaxclust: district vaccination-coverage clustering, prediction, attribution.

Pipeline stages, each usable on its own, in import order: a stage imports
only the stages listed before it, plus ``errors``, ``rng``, ``schema`` and
``fixtures``, which import no vaxclust module, so loading the classifier
loads neither the rank tests nor scipy.

1. ``dataset``    — ingest and join the per-year vaccination / GDSC tables
2. ``hcluster``   — Ward agglomeration, dendrogram, k-cut, coverage labels
3. ``gbdt``       — boosted oblivious-tree classifier with ordered
                    target-statistic encoding of categoricals
4. ``shapley``    — exact TreeSHAP plus a brute-force oracle
5. ``evaluation`` — stratified cross-validation and macro metrics
6. ``stats``      — Mann-Whitney tests, box summaries, rurality cross-tabs
7. ``synth``      — deterministic synthetic districts from embedded means
8. ``pipeline``   — orchestration and report emission
9. ``cli``        — the ``vaxclust`` command line
"""

__version__ = "0.1.0"
