"""The repository benchmark (see NOTES.md); run ``python3 perfbench/run.py``."""
