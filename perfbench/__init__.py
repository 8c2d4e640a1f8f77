"""Host-time benchmark of the tiering simulator (see ``run.py``)."""
