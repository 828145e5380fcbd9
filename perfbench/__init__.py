"""Paper-workload benchmark of the CloudMirror reproduction (see run.py)."""
