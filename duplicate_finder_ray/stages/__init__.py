"""Pipeline stages: per-batch transforms + hash-exchange wide steps."""
