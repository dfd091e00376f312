"""The whole-query benchmark; see README.md in this directory."""
