"""Wall-clock benchmark of the dbDedup reproduction (run ``perfbench/run.py``)."""
