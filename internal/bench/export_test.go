package bench

// Test-only exports. The scheme and transport packages import bench to
// register themselves, so bench's own tests live in package bench_test
// (importing those packages from an in-package test would cycle); this shim
// exposes the unexported pieces they exercise.

var MergeResults = mergeResults

func (s Scenario) WithDefaults() Scenario { return s.withDefaults() }

// Cells returns the exhibit's cell documents on r without running them.
func (e Exhibit) Cells(r *Runner) []Cell { return e.cells(r) }

// SweepCell is the cell of one scheme on a registered workload at one load.
func (r *Runner) SweepCell(scheme Scheme, wl string, load float64) Cell {
	return r.cell(scheme, wl, load)
}

// RunCell runs (or recalls) one cell.
func (r *Runner) RunCell(c Cell) (Result, error) { return r.runCell(c) }

// Bundle returns (training on demand) the pretrained bundle a cell starts
// from.
func (r *Runner) Bundle(c Cell) ([]byte, error) { return r.pretrained(c) }

func (r *Runner) CacheSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cache)
}

// Cached returns a cell's cached result, looked up by its document, once
// it has been computed without error.
func (r *Runner) Cached(c Cell) (Result, bool) {
	key, err := c.key()
	if err != nil {
		return Result{}, false
	}
	r.mu.Lock()
	f, ok := r.cache[key]
	r.mu.Unlock()
	if !ok {
		return Result{}, false
	}
	res, err := f()
	return res, err == nil
}

// ExhibitOf is an exhibit of the given cells, rendered as one table with a
// row per cell.
func ExhibitOf(cells ...Cell) Exhibit {
	return Exhibit{"test", func(*Runner) []Cell { return cells }, perCell("test", "", schemeCol)}
}
