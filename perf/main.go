// Command perf is the repository's one benchmark: five workloads, ten
// end-to-end metrics, and — with -trace 1 — a traced second pass that yields
// the per-layer numbers. README.md has the tables; BENCHMARK.json, one
// directory up, has the contract and the regression bounds.
//
//	go run . -workload sim_paper -seed 1 -seconds 20 -trace 0
//	go run . -trace 1 -json out/a.json        # whole suite, both passes
//	go run . -compare baseline/a.json baseline/b.json
//
// Everything is measured from outside, through the public functions and
// counters of pet and pet/internal/*; nothing outside this directory knows
// the benchmark exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"pet/internal/buildinfo"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadF = fs.String("workload", strings.Join(workloadNames, ","), "comma-separated workloads to run")
		seed      = fs.Int64("seed", 1, "seed the generated inputs are drawn from")
		seconds   = fs.Int("seconds", nominalSeconds, "how much to measure; stage sizes are written for 20")
		trace     = fs.Int("trace", 0, "1 = add the traced pass and the probes, and print the per-layer metrics")
		jsonOut   = fs.String("json", "", "merge the runs into this ledger file (created if absent)")
		compare   = fs.Bool("compare", false, "compare two ledger files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "perf: %v\n", err)
		return 1
	}
	root, err := repoRoot()
	if err != nil {
		return fatal(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fatal(fmt.Errorf("-compare takes two ledger files"))
		}
		worse, err := compareLedgers(stdout, filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fatal(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		return fatal(fmt.Errorf("want -seconds >= 1, -trace 0 or 1 and no positional arguments"))
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(stderr, "perf: warning: fewer than 2 CPUs; the 2-worker, 2-client load shape will time-share one core")
	}

	outDir := filepath.Join(root, "perf", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fatal(err)
	}
	var (
		reports []report
		spans   []span
		failed  bool
	)
	for _, name := range strings.Split(*workloadF, ",") {
		runtime.GC()
		rep, sp, err := runWorkload(strings.TrimSpace(name), *seed, *seconds, *trace == 1, outDir, root)
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", name, err))
		}
		rep.print(stdout)
		reports = append(reports, rep)
		spans = append(spans, sp...)
		failed = failed || rep.Failed > 0
	}
	if *trace == 1 {
		if err := writeJSON(filepath.Join(outDir, "trace.json"), spans); err != nil {
			return fatal(err)
		}
	}
	if *jsonOut != "" {
		if err := mergeLedger(*jsonOut, reports); err != nil {
			return fatal(err)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// repoRoot finds the checkout: the nearest directory at or above the working
// directory that holds perf/go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "perf", "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no perf/go.mod at or above the working directory")
		}
		dir = parent
	}
}

// report is one run of one workload.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digests   map[string]string `json:"digests"`
	EndToEnd  metricSet         `json:"end_to_end"`
	PerLayer  metricSet         `json:"per_layer,omitempty"`
}

// runWorkload measures one workload: the untraced pass always, and with
// traced the second pass, the sharded repetition and the probes.
func runWorkload(name string, seed int64, seconds int, traced bool, outDir, root string) (report, []span, error) {
	rep := report{Workload: name, Seed: seed, Seconds: seconds}
	sh, err := shapeFor(name, seconds, false)
	if err != nil {
		return rep, nil, err
	}
	timedRun := &run{workload: name, seed: seed, shape: sh, outDir: outDir}
	timed, err := timedRun.pass()
	if err != nil {
		return rep, nil, err
	}
	rep.EndToEnd = endToEndMetrics(timed)
	rep.Digests = map[string]string{"sim_result": timed.sim.digest, "repro_tables": timed.repro.digest}
	rep.Attempted, rep.Failed = timedRun.attempted, timedRun.failed
	if missing := rep.EndToEnd.missing(endToEnd); len(missing) > 0 {
		return rep, nil, fmt.Errorf("end-to-end metrics never set: %v", missing)
	}
	if !traced {
		return rep, nil, nil
	}

	rep.Trace = 1
	if sh, err = shapeFor(name, seconds, true); err != nil {
		return rep, nil, err
	}
	runtime.GC()
	tracedRun := &run{workload: name, seed: seed, shape: sh, outDir: outDir, tr: newTracer(name)}
	tracedPass, err := tracedRun.pass()
	if err != nil {
		return rep, nil, err
	}
	runtime.GC()
	shardedWall, err := tracedRun.simSharded(tracedPass.sim)
	if err != nil {
		return rep, nil, err
	}
	runtime.GC()
	probes, err := runProbes(outDir, root)
	if err != nil {
		return rep, nil, err
	}
	if rep.PerLayer, err = perLayerMetrics(sh.primary, timed, tracedPass, shardedWall, probes); err != nil {
		return rep, nil, err
	}
	rep.Attempted += tracedRun.attempted
	rep.Failed += tracedRun.failed
	return rep, tracedRun.tr.spans, nil
}

// print writes every metric by name with its unit, then the one-line result
// the benchmark contract asks for: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func (r report) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %d: attempted %d failed %d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed)
	for _, k := range []string{"sim_result", "repro_tables"} {
		fmt.Fprintf(w, "  digest %-36s %s\n", k, r.Digests[k])
	}
	printSet := func(defs []metricDef, m metricSet) {
		for _, d := range defs {
			if v, ok := m[d.name]; ok {
				fmt.Fprintf(w, "  %-43s %14.6g %s\n", d.name, v.Value, v.Unit)
			}
		}
	}
	printSet(endToEnd, r.EndToEnd)
	printSet(perLayer, r.PerLayer)
	result := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.EndToEnd}
	if r.Trace == 1 {
		result.Metrics = r.PerLayer
	}
	line, _ := json.Marshal(result) // cannot fail: metricSet.set admits only finite values
	fmt.Fprintf(w, "%s\n", line)
}

// machine identifies where a ledger's numbers were taken.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown",
		Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if rev := buildinfo.Read().Revision; rev != "" {
		m.Commit = rev
	}
	return m
}

// summary condenses one metric's values over a ledger's runs of a workload.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3 − q1) ÷ median; the range below four runs
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// ledger is the -json file: every run it was given, their summary, and the
// claim made from them. This harness only measures, so the claim is null.
type ledger struct {
	Machine machine                       `json:"machine"`
	Runs    []report                      `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"`
	Claim   *string                       `json:"claim"`
}

func readLedger(path string) (ledger, error) {
	var l ledger
	data, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(data, &l); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// mergeLedger adds runs to the ledger at path, so a set of runs made one
// process at a time — the way the driver makes them — lands in one file.
func mergeLedger(path string, runs []report) error {
	l, err := readLedger(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	l.Machine = thisMachine()
	l.Runs = append(l.Runs, runs...)
	l.summarise()
	return writeJSON(path, l)
}

func (l *ledger) summarise() {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range l.Runs {
		for _, set := range []metricSet{r.EndToEnd, r.PerLayer} {
			for name, m := range set {
				if values[r.Workload] == nil {
					values[r.Workload] = map[string][]float64{}
				}
				values[r.Workload][name] = append(values[r.Workload][name], m.Value)
				units[name] = m.Unit
			}
		}
	}
	l.Summary = map[string]map[string]summary{}
	for w, byName := range values {
		l.Summary[w] = map[string]summary{}
		for name, v := range byName {
			s := summary{Median: median(v), N: len(v), Unit: units[name], Spread: spread(v)}
			if len(v) >= 2 {
				s.Q1, s.Q3 = quartiles(v)
			} else {
				s.Q1, s.Q3 = s.Median, s.Median
			}
			l.Summary[w][name] = s
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
