"""Self-tests of the benchmark's generator, checker and layer wrappers."""
