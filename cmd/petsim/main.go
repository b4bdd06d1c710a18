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
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("petsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	models := fs.String("models", "", "PET model bundle from pettrain")
	traceF := fs.String("trace", "", "write an event trace CSV to this path")
	var sf pet.ScenarioFlags
	sf.Register(fs, "scenario", "scheme", "transport", "topo", "spines", "leaves", "hosts",
		"workload", "load", "incast", "fanin", "train", "warmup", "duration", "seed")
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

	spec, err := sf.Spec()
	if err != nil {
		return fatalf("%v", err)
	}
	s, err := spec.ToScenario()
	if err != nil {
		return fatalf("%v", err)
	}
	if *models != "" {
		if s.Models, err = os.ReadFile(*models); err != nil {
			return fatalf("reading models: %v", err)
		}
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

	label := fmt.Sprintf("scenario %s, load %.0f%%", cmp.Or(spec.Name, sf.File), res.Load*100)
	if sf.File == "" {
		label = fmt.Sprintf("%s, load %.0f%%, %s", spec.Workload.Name, res.Load*100, spec.Topo.Preset)
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
