"""End-to-end and per-layer benchmark for samt; see README.md."""
