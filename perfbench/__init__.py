"""End-to-end serving benchmark of the Tagspin stack (entry point: run.py)."""
