"""The gtt kernel benchmark: driver, worker and seeded inputs (see README.md)."""
