// Command petbench regenerates the paper's tables and figures.
//
// Usage:
//
//	petbench -exp all                 # every experiment
//	petbench -exp fig4,table1         # a subset
//	petbench -exp fig4 -topo small    # bigger fabric, slower
//	petbench -quick                   # fast smoke pass
//	petbench -scenario scenarios/failure-storm.json   # one spec-described run
//	petbench -telemetry :8080         # watch progress on /metrics meanwhile
//	petbench -list-schemes            # registered scheme names
//
// Experiments, in the order -exp all runs them: fig3 fig4 fig5 fig6 fig7
// fig8 fig9 table1 overhead historyk beta dynamic ctde compat
//
// -scenario skips the paper catalog and instead executes one declarative
// scenario document (the same JSON petsim and petd accept), rendering the
// run as a metric/value table. Every scenario flag set explicitly (-topo,
// -spines, -leaves, -hosts, -seed) overrides the document's field,
// and -quick shrinks its measurement windows.
//
// GOMAXPROCS bounds the parallelism: an experiment's result cells run
// concurrently, up to GOMAXPROCS simulations at a time, and ACC's switch
// agents learn in parallel within each interval. The tables are
// byte-identical at any GOMAXPROCS; only the order of the progress lines
// on stderr varies. GOMAXPROCS=1 runs everything one after another.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"pet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("petbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exps   = fs.String("exp", "all", "comma-separated experiments or 'all'")
		seeds  = fs.Int("seeds", 1, "independent seeds averaged per result cell")
		loads  = fs.String("loads", "0.3,0.5,0.7", "comma-separated offered loads")
		quick  = fs.Bool("quick", false, "shrink training and measurement windows")
		csvDir = fs.String("csv", "", "also write each table as CSV into this directory")
	)
	var sf pet.ScenarioFlags
	sf.Register(fs, "scenario", "topo", "spines", "leaves", "hosts", "seed")
	var tf pet.TelemetryFlag
	tf.Register(fs)
	var info pet.InfoFlags
	info.Register(fs, "list-schemes", "list-transports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if info.Handle(stdout) {
		return 0
	}

	fatalf := func(code int, format string, args ...any) int {
		fmt.Fprintf(stderr, "petbench: "+format+"\n", args...)
		return code
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fatalf(1, "%v", err)
		}
	}

	if err := tf.Start(func(format string, a ...any) {
		fmt.Fprintf(stderr, format+"\n", a...)
	}); err != nil {
		return fatalf(1, "telemetry: %v", err)
	}
	defer tf.Stop()

	spec, err := sf.Spec()
	if err != nil {
		return fatalf(2, "%v", err)
	}
	if *quick {
		warmup, duration := pet.SimDuration(5*pet.Millisecond), pet.SimDuration(15*pet.Millisecond)
		spec.Warmup, spec.Duration = &warmup, &duration
	}
	s, err := spec.ToScenario()
	if err != nil {
		return fatalf(2, "%v", err)
	}

	if sf.File != "" {
		s.Telemetry = tf.Registry
		title := cmp.Or(spec.Name, sf.File)
		start := time.Now()
		res, err := pet.Run(s)
		if err != nil {
			return fatalf(1, "%v", err)
		}
		tb := pet.ResultTable(title, res)
		tb.Note("scenario %s, simulated %v in %v wall clock", sf.File,
			time.Duration((s.Warmup+s.Duration)/pet.Nanosecond)*time.Nanosecond,
			time.Since(start).Round(time.Millisecond))
		fmt.Fprintln(stdout, tb)
		if *csvDir != "" {
			base := strings.TrimSuffix(filepath.Base(sf.File), filepath.Ext(sf.File))
			path := filepath.Join(*csvDir, base+".csv")
			if err := os.WriteFile(path, []byte(tb.CSV()), 0o644); err != nil {
				return fatalf(1, "%v", err)
			}
		}
		return 0
	}

	r := pet.NewRunner()
	r.Topo, r.Seed = s.Topo, s.Seed
	r.Seeds = *seeds
	r.Telemetry = tf.Registry
	if r.Topo.Leaves*r.Topo.HostsPerLeaf >= 100 {
		fmt.Fprintln(stderr, "note: large fabric; expect long runtimes")
	}
	r.Loads = nil
	for _, s := range strings.Split(*loads, ",") {
		var l float64
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &l); err != nil || l <= 0 || l > 1 {
			return fatalf(2, "bad load %q", s)
		}
		r.Loads = append(r.Loads, l)
	}
	if *quick {
		r.TrainTime = 10 * pet.Millisecond
		r.Warmup = 5 * pet.Millisecond
		r.Duration = 15 * pet.Millisecond
	}

	selected := pet.Exhibits()
	if *exps != "all" {
		want := map[string]bool{}
		for _, e := range strings.Split(*exps, ",") {
			want[strings.TrimSpace(e)] = true
		}
		selected = slices.DeleteFunc(selected, func(e pet.Exhibit) bool { return !want[e.Name] })
		for _, e := range selected {
			delete(want, e.Name)
		}
		for e := range want {
			return fatalf(2, "unknown experiment %q", e)
		}
	}

	// Stream progress and an ETA to stderr while the sweep runs; table
	// output stays on stdout so redirects and -csv keep working unchanged.
	// The ETA extrapolates from completed experiments, so it only appears
	// from the second one on and sharpens as the sweep advances.
	sweepStart := time.Now()
	r.Progress = func(msg string) {
		fmt.Fprintf(stderr, "  … %s (t+%v)\n", msg, time.Since(sweepStart).Round(time.Second))
	}
	for k, e := range selected {
		eta := ""
		if k > 0 {
			remaining := time.Since(sweepStart) / time.Duration(k) * time.Duration(len(selected)-k)
			eta = fmt.Sprintf(", ETA %v", remaining.Round(time.Second))
		}
		fmt.Fprintf(stderr, "[%d/%d] %s%s\n", k+1, len(selected), e.Name, eta)
		start := time.Now()
		tables, err := e.Tables(r)
		if err != nil {
			return fatalf(1, "%s: %v", e.Name, err)
		}
		for i, tb := range tables {
			fmt.Fprintln(stdout, tb)
			if *csvDir != "" {
				path := fmt.Sprintf("%s/%s_%d.csv", *csvDir, e.Name, i)
				if err := os.WriteFile(path, []byte(tb.CSV()), 0o644); err != nil {
					return fatalf(1, "%v", err)
				}
			}
		}
		fmt.Fprintf(stderr, "[%s done in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
