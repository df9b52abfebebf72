"""End-to-end and per-layer benchmark of the SCC system (see METHODS.md)."""
