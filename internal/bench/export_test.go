package bench

// Test-only exports. The scheme and transport packages import bench to
// register themselves, so bench's own tests live in package bench_test
// (importing those packages from an in-package test would cycle); this shim
// exposes the unexported pieces they exercise.

import "pet/internal/workload"

var MergeResults = mergeResults

func (s Scenario) WithDefaults() Scenario { return s.withDefaults() }

func (r *Runner) RunOne(scheme Scheme, wl *workload.CDF, load float64) (Result, error) {
	return r.run(scheme, wl, load)
}

func (r *Runner) CacheSize() int { return len(r.cache) }

// Cell returns a cached result cell by its runner key.
func (r *Runner) Cell(key string) (Result, bool) {
	res, ok := r.cache[key]
	return res, ok
}
