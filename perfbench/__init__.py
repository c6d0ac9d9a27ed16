"""Host-speed benchmark of the nrv2x simulator; see run.py."""
