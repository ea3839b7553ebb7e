"""specrig benchmark: corpus, outcome checker, tracing and runner."""
