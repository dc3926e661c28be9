"""End-to-end benchmark of the RNE program: see README.md in this directory."""
