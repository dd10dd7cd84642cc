"""Descriptor featurization and single/multi-task property models for
CHNOClF energetic molecules.

Public surface:

- :mod:`emprops.molgraph` -- SMILES parsing, ring perception, substructure
  matching.
- :mod:`emprops.descriptors` -- descriptor suite, feature schema, featurize.
- :mod:`emprops.dataset` -- property channels, CSV ingestion, splits,
  standardization, correlation analysis.
- :mod:`emprops.mtnn` -- the network engine: the selector-vector multi-task
  dense network (the single-task network is the selector-free special
  case) and its training.
- :mod:`emprops.forest` -- the forest engine: single-task random forest
  regressor.
- :mod:`emprops.evaluation` -- the grids, the fit jobs, selection by inner
  CV, the cross-validation protocol, metrics and reports.
- :mod:`emprops.cli` -- command line entry point.
"""

__version__ = "0.1.0"
