// Command petsim runs one simulation scenario and prints its statistics.
//
// Usage:
//
//	petsim -scheme PET -load 0.6 -workload websearch -train
//	petsim -scheme SECN1 -topo small -duration 100ms
//	petsim -scheme PET -models pet.model      # offline-trained weights
//	petsim -scheme PET -transport dctcp       # window-based end hosts
//	petsim -telemetry :8080                   # live /metrics while running
//	petsim -list-schemes                      # registered scheme names
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"pet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("petsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarioF  = fs.String("scenario", "", "load a scenario document (JSON); explicitly-set flags override its fields")
		schemeF    = fs.String("scheme", "PET", "registered scheme name (see -list-schemes)")
		transportF = fs.String("transport", "dcqcn", "registered end-host transport (see -list-transports)")
		topoF      = fs.String("topo", "tiny", "fabric preset: "+strings.Join(pet.TopoPresets(), "|"))
		spines     = fs.Int("spines", 0, "override the preset's spine count")
		leaves     = fs.Int("leaves", 0, "override the preset's leaf count")
		hosts      = fs.Int("hosts", 0, "override the preset's hosts per leaf")
		shards     = fs.Int("shards", 1, "event-loop shards (0 = one per CPU, 1 = single loop)")
		wlF        = fs.String("workload", "websearch", "registered workload name: "+strings.Join(pet.WorkloadNames(), "|"))
		load       = fs.Float64("load", 0.6, "offered load fraction (0,1]")
		incast     = fs.Float64("incast", 0.2, "fraction of load delivered as incast groups")
		fanIn      = fs.Int("fanin", 3, "senders per incast group")
		train      = fs.Bool("train", true, "online incremental training (learned schemes)")
		models     = fs.String("models", "", "PET model bundle from pettrain")
		warmup     = fs.Duration("warmup", 20*time.Millisecond, "simulated warmup before measurement")
		dur        = fs.Duration("duration", 60*time.Millisecond, "simulated measurement window")
		seed       = fs.Int64("seed", 1, "root random seed")
		traceF     = fs.String("trace", "", "write an event trace CSV to this path")
	)
	var tf pet.TelemetryFlag
	tf.Register(fs)
	var info pet.InfoFlags
	info.Register(fs, "list-schemes", "list-transports", "list-workloads", "list-events")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if info.Handle(stdout) {
		return 0
	}

	fatalf := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "petsim: "+format+"\n", args...)
		return 2
	}

	// With -scenario the document is the base configuration and only flags
	// the user explicitly set override it; without, every flag applies.
	visited := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { visited[f.Name] = true })
	set := func(name string) bool { return *scenarioF == "" || visited[name] }

	var s pet.Scenario
	runLabel := *wlF
	if *scenarioF != "" {
		spec, err := pet.LoadScenarioFile(*scenarioF)
		if err != nil {
			return fatalf("%v", err)
		}
		if s, err = spec.ToScenario(); err != nil {
			return fatalf("%v", err)
		}
		runLabel = spec.Name
		if runLabel == "" {
			runLabel = *scenarioF
		}
	}
	if set("seed") {
		s.Seed = *seed
	}
	if set("load") {
		s.Load = *load
		s.ExplicitLoad = true
	}
	if set("incast") {
		s.IncastFraction = *incast
	}
	if set("fanin") {
		s.IncastFanIn = *fanIn
	}
	if set("scheme") {
		s.Scheme = pet.Scheme(*schemeF)
	}
	if set("transport") {
		s.Transport = pet.TransportKind(*transportF)
	}
	if set("train") {
		s.Train = *train
	}
	if set("warmup") {
		s.Warmup = pet.Time(warmup.Nanoseconds()) * pet.Nanosecond
		s.ExplicitWarmup = true
	}
	if set("duration") {
		s.Duration = pet.Time(dur.Nanoseconds()) * pet.Nanosecond
	}
	if set("topo") {
		topoCfg, err := pet.TopoPreset(*topoF)
		if err != nil {
			return fatalf("%v", err)
		}
		s.Topo = topoCfg
	}
	if *spines > 0 && set("spines") {
		s.Topo.Spines = *spines
	}
	if *leaves > 0 && set("leaves") {
		s.Topo.Leaves = *leaves
	}
	if *hosts > 0 && set("hosts") {
		s.Topo.HostsPerLeaf = *hosts
	}
	if err := s.Topo.Validate(); err != nil {
		return fatalf("%v", err)
	}
	if *shards == 0 {
		*shards = runtime.NumCPU()
	}
	if set("shards") {
		s.Shards = *shards
	}
	if set("workload") {
		wl, err := pet.WorkloadByName(*wlF)
		if err != nil {
			return fatalf("%v", err)
		}
		s.Workload = wl
		if !s.ExplicitBetas {
			s.Beta1, s.Beta2 = pet.DefaultBetas(wl)
			s.ExplicitBetas = true
		}
	}
	if *models != "" && set("models") {
		data, err := os.ReadFile(*models)
		if err != nil {
			return fatalf("reading models: %v", err)
		}
		s.Models = data
	}

	if err := tf.Start(func(format string, a ...any) {
		fmt.Fprintf(stderr, format+"\n", a...)
	}); err != nil {
		return fatalf("telemetry: %v", err)
	}
	defer tf.Stop()
	s.Telemetry = tf.Registry

	s.Trace = *traceF != ""
	start := time.Now()
	env, err := pet.NewEnv(s)
	if err != nil {
		return fatalf("%v", err)
	}
	res := env.Run()
	wall := time.Since(start)
	if *traceF != "" {
		f, err := os.Create(*traceF)
		if err != nil {
			return fatalf("creating trace: %v", err)
		}
		if err := env.Trace.WriteCSV(f); err != nil {
			return fatalf("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			return fatalf("closing trace: %v", err)
		}
		fmt.Fprintf(stdout, "trace       %d events -> %s\n", env.Trace.Len(), *traceF)
	}

	label := fmt.Sprintf("%s, load %.0f%%, %s", *wlF, *load*100, *topoF)
	if *scenarioF != "" {
		label = fmt.Sprintf("scenario %s, load %.0f%%", runLabel, res.Load*100)
	}
	fmt.Fprintf(stdout, "scheme      %s  (%s)\n", res.Scheme, label)
	fmt.Fprintf(stdout, "flows done  %d   drops %d\n", res.FlowsDone, res.Drops)
	fmt.Fprintf(stdout, "normalized FCT (slowdown):\n")
	fmt.Fprintf(stdout, "  overall        avg %8.2f   p99 %8.2f   (n=%d)\n",
		res.Overall.AvgSlowdown, res.Overall.P99Slowdown, res.Overall.N)
	fmt.Fprintf(stdout, "  mice <=100KB   avg %8.2f   p99 %8.2f   (n=%d)\n",
		res.MiceBkt.AvgSlowdown, res.MiceBkt.P99Slowdown, res.MiceBkt.N)
	fmt.Fprintf(stdout, "  elephant>=10MB avg %8.2f   p99 %8.2f   (n=%d)\n",
		res.Elephant.AvgSlowdown, res.Elephant.P99Slowdown, res.Elephant.N)
	fmt.Fprintf(stdout, "  incast flows   avg %8.2f   p99 %8.2f   (n=%d)\n",
		res.Incast.AvgSlowdown, res.Incast.P99Slowdown, res.Incast.N)
	fmt.Fprintf(stdout, "latency     avg %.1fus   p99 %.1fus\n", res.LatencyAvgUs, res.LatencyP99Us)
	fmt.Fprintf(stdout, "queue       avg %.1fKB   var %.1fKB\n", res.QueueAvgKB, res.QueueVarKB)
	if rb := res.Overhead[pet.OverheadReplayBytes]; rb > 0 {
		fmt.Fprintf(stdout, "replay      %d bytes exchanged, %d bytes resident\n",
			rb, res.Overhead[pet.OverheadReplayMemory])
	}
	fmt.Fprintf(stdout, "wall clock  %v\n", wall.Round(time.Millisecond))
	return 0
}
