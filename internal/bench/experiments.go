package bench

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"

	"pet/internal/sim"
	"pet/internal/stats"
	"pet/internal/telemetry"
	"pet/internal/topo"
)

// Runner regenerates the paper's tables and figures. Results are cached by
// cell document (see Cell), so exhibits sharing a cell (Fig. 4 and Fig. 8,
// for instance) pay for each simulation once.
//
// A runner is safe for concurrent use, and runs work concurrently itself:
// an exhibit's cells, and a cell's seeds, all start at once, and up to
// GOMAXPROCS simulations (runs and pre-training) execute at a time. Every
// simulation is deterministic in its own document, so the tables do not
// depend on the schedule.
//
// The fabric is a scaled-down leaf-spine (see DESIGN.md): absolute numbers
// shrink with the topology, but the comparisons — who wins, by roughly what
// factor, where the curves cross — are the reproduction target.
type Runner struct {
	Topo  topo.LeafSpineConfig
	Seed  int64
	Seeds int // independent seeds averaged per cell (default 1)
	Loads []float64

	TrainTime sim.Time // offline pre-training budget for learned schemes
	Warmup    sim.Time
	Duration  sim.Time

	IncastFraction float64
	IncastFanIn    int

	// Telemetry, when non-nil, is threaded into every scenario the runner
	// executes (pre-training episodes included) so a long petbench sweep
	// can be watched live over HTTP. Observation-only, like everywhere.
	Telemetry *telemetry.Registry

	// Progress, when non-nil, receives a line for each simulation the
	// runner is about to execute — cache misses only, so the stream tracks
	// real work. CLIs point it at stderr to narrate long sweeps. Calls never
	// overlap, but concurrent simulations start in no fixed order.
	Progress func(msg string)

	// mu guards cache and bundles. Each entry computes its value once, for
	// whichever caller asks first; callers asking while it runs wait for it.
	mu         sync.Mutex
	cache      map[string]func() (Result, error)
	bundles    map[string]func() ([]byte, error)
	progressMu sync.Mutex    // serialises Progress calls
	slots      chan struct{} // one token per simulation running
}

// progress reports one unit of upcoming work to the Progress hook, if any.
func (r *Runner) progress(format string, a ...any) {
	if r.Progress != nil {
		r.progressMu.Lock()
		defer r.progressMu.Unlock()
		r.Progress(fmt.Sprintf(format, a...))
	}
}

// once returns the value m holds for key, computing it on the first call:
// concurrent calls for one key share one computation, error included.
func once[T any](r *Runner, m map[string]func() (T, error), key string, compute func() (T, error)) (T, error) {
	r.mu.Lock()
	f, ok := m[key]
	if !ok {
		f = sync.OnceValues(compute)
		m[key] = f
	}
	r.mu.Unlock()
	return f()
}

// simulate runs one simulation while holding a slot, so that at most
// GOMAXPROCS run at a time. It is the only place a slot is held: waiting
// for another entry's value never holds one, since that entry may need a
// slot of its own.
func (r *Runner) simulate(fn func() error) error {
	r.slots <- struct{}{}
	defer func() { <-r.slots }()
	return fn()
}

// all calls fn(i) for every i in [0, n), each on a goroutine of its own,
// waits for every call, and returns the error of the lowest i that failed.
func all(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// NewRunner returns a runner with laptop-scale defaults.
func NewRunner() *Runner {
	return &Runner{
		Topo:           topo.TinyScale(),
		Seed:           1,
		Seeds:          1,
		Loads:          []float64{0.3, 0.5, 0.7},
		TrainTime:      300 * sim.Millisecond,
		Warmup:         30 * sim.Millisecond,
		Duration:       150 * sim.Millisecond,
		IncastFraction: 0.2,
		IncastFanIn:    3,
		cache:          map[string]func() (Result, error){},
		bundles:        map[string]func() ([]byte, error){},
		slots:          make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
}

// Cell is one result cell of an exhibit: a scenario document, plus whether
// its learned scheme starts from the runner's pretrained bundle. Spec.Name
// labels the cell in progress lines; labels are not part of its identity.
type Cell struct {
	Spec       ScenarioSpec
	Pretrained bool
}

// key names the cell in the runner's cache: the sha256 of its canonical
// document with the labels cleared, so two exhibits asking for the same run
// share it, plus the pretrained bit.
func (c Cell) key() (string, error) {
	doc := c.Spec
	doc.Name, doc.Notes = "", ""
	b, err := doc.Encode()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x/%t", sha256.Sum256(b), c.Pretrained), nil
}

// simDur returns t as a document duration.
func simDur(t sim.Time) *SimDuration {
	d := SimDuration(t)
	return &d
}

// base is the document every cell overlays: the runner's fabric, seed,
// incast mix and windows, on the DCQCN transport, all written out.
func (r *Runner) base() ScenarioSpec {
	c := r.Topo
	return ScenarioSpec{
		Topo: &TopoSpec{
			Spines: c.Spines, Leaves: c.Leaves, HostsPerLeaf: c.HostsPerLeaf,
			HostLinkGbps: c.HostLinkBps / 1e9, UplinkGbps: c.UplinkBps / 1e9,
			HostDelay: simDur(c.HostDelay), UplinkDelay: simDur(c.UplinkDelay),
		},
		Seed:           r.Seed,
		IncastFraction: r.IncastFraction,
		IncastFanIn:    r.IncastFanIn,
		Transport:      string(TransportDCQCN),
		Warmup:         simDur(r.Warmup),
		Duration:       simDur(r.Duration),
	}
}

// cell is the base document running one scheme on a registered workload at
// one load, under the protocol its scheme trains by: PET and PET-ablated
// train online from the pretrained bundle, ACC online only.
func (r *Runner) cell(scheme Scheme, wl string, load float64) Cell {
	c := Cell{Spec: r.base()}
	c.Spec.Name, c.Spec.Scheme = fmt.Sprintf("%s/%s/%.2f", scheme, wl, load), string(scheme)
	c.Spec.Workload, c.Spec.Load = &WorkloadSpec{Name: wl}, &load
	switch scheme {
	case SchemePET, SchemePETAblated:
		c.Spec.Train, c.Pretrained = true, true
	case SchemeACC:
		r.online(&c)
	}
	return c
}

// online puts a cell on the online-only protocol: no pretrained bundle, and
// training during a warm-up extended by the runner's training budget, so
// the scheme gets the same total training time as PET's pretrain+warm-up.
func (r *Runner) online(c *Cell) {
	c.Spec.Train, c.Pretrained = true, false
	c.Spec.Warmup = simDur(c.Spec.Warmup.Time() + r.TrainTime)
}

// pretrained returns (training on demand) the offline-trained bundle a
// cell's scheme starts from — the hybrid pipeline of Sec. 4.4. Pretraining
// runs a document too: the base on the cell's scheme and workload at
// Seed+1000 and 60% load for TrainTime, and the bundle is cached under that
// document's key.
func (r *Runner) pretrained(c Cell) ([]byte, error) {
	load := 0.6
	doc := r.base()
	doc.Seed += 1000
	doc.Scheme, doc.Workload, doc.Load = c.Spec.Scheme, c.Spec.Workload, &load
	doc.Duration = simDur(r.TrainTime)
	key, err := Cell{Spec: doc}.key()
	if err != nil {
		return nil, err
	}
	return once(r, r.bundles, key, func() (m []byte, err error) {
		s, err := doc.ToScenario()
		if err != nil {
			return nil, err
		}
		s.Telemetry = r.Telemetry
		err = r.simulate(func() (err error) {
			r.progress("pretrain %s on %s (%v)", doc.Scheme, doc.Workload.Name, r.TrainTime)
			m, err = PretrainPET(s, s.Duration)
			return err
		})
		return m, err
	})
}

// runCell runs (or recalls) one result cell: each of r.Seeds seeds runs the
// cell's document with its seed advanced by i·7919, the runner's telemetry
// and (for a pretrained cell) its bundle attached, and the cell averages
// them. The seeds run concurrently; their results merge in seed order.
func (r *Runner) runCell(c Cell) (Result, error) {
	key, err := c.key()
	if err != nil {
		return Result{}, err
	}
	return once(r, r.cache, key, func() (_ Result, err error) {
		var models []byte
		if c.Pretrained {
			if models, err = r.pretrained(c); err != nil {
				return Result{}, err
			}
		}
		results := make([]Result, max(r.Seeds, 1))
		err = all(len(results), func(i int) error {
			doc := c.Spec
			doc.Seed += int64(i) * 7919
			s, err := doc.ToScenario()
			if err != nil {
				return err
			}
			s.Telemetry, s.Models = r.Telemetry, models
			return r.simulate(func() (err error) {
				r.progress("run %s seed %d/%d", c.Spec.Name, i+1, len(results))
				results[i], err = Run(s)
				return err
			})
		})
		if err != nil {
			return Result{}, err
		}
		return mergeResults(results), nil
	})
}

// mergeResults averages scalar metrics across seeds (P99s are averaged
// per-seed P99s); counters are summed; overhead counters are averaged
// per-seed; the first seed's series is kept.
func mergeResults(rs []Result) Result {
	if len(rs) == 1 {
		return rs[0]
	}
	out := rs[0]
	mergeSummary := func(get func(*Result) *stats.Summary) {
		var avgFCT, p99FCT, avgS, p99S float64
		n, nonEmpty := 0, 0
		for i := range rs {
			s := get(&rs[i])
			n += s.N
			if s.N == 0 {
				// A seed whose window completed no flows of this bucket
				// carries no information; averaging its zeros in would
				// bias the cell low.
				continue
			}
			nonEmpty++
			avgFCT += float64(s.AvgFCT)
			p99FCT += float64(s.P99FCT)
			avgS += s.AvgSlowdown
			p99S += s.P99Slowdown
		}
		if nonEmpty == 0 {
			*get(&out) = stats.Summary{}
			return
		}
		k := float64(nonEmpty)
		*get(&out) = stats.Summary{
			N:           n,
			AvgFCT:      sim.Time(avgFCT / k),
			P99FCT:      sim.Time(p99FCT / k),
			AvgSlowdown: avgS / k,
			P99Slowdown: p99S / k,
		}
	}
	mergeSummary(func(r *Result) *stats.Summary { return &r.Overall })
	mergeSummary(func(r *Result) *stats.Summary { return &r.MiceBkt })
	mergeSummary(func(r *Result) *stats.Summary { return &r.Elephant })
	mergeSummary(func(r *Result) *stats.Summary { return &r.Incast })
	var latA, latP, qA, qV float64
	var flows int
	var drops uint64
	overhead := map[string]int64{}
	for i := range rs {
		latA += rs[i].LatencyAvgUs
		latP += rs[i].LatencyP99Us
		qA += rs[i].QueueAvgKB
		qV += rs[i].QueueVarKB
		flows += rs[i].FlowsDone
		drops += rs[i].Drops
		for name, v := range rs[i].Overhead {
			overhead[name] += v
		}
	}
	k := float64(len(rs))
	out.LatencyAvgUs = latA / k
	out.LatencyP99Us = latP / k
	out.QueueAvgKB = qA / k
	out.QueueVarKB = qV / k
	out.FlowsDone = flows
	out.Drops = drops
	out.Overhead = nil
	if len(overhead) > 0 {
		for name := range overhead {
			overhead[name] /= int64(len(rs))
		}
		out.Overhead = overhead
	}
	return out
}
