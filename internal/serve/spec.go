// Package serve is the resident control plane: the subsystem behind the
// petd daemon. It hosts three services over one HTTP listener:
//
//   - an experiment lifecycle API (POST/GET/DELETE /experiments) launching
//     scheme×transport×scenario runs and fleet pre-training jobs in managed
//     goroutines with context cancellation,
//   - live telemetry streaming (GET /events), pushing periodic registry
//     snapshots and job states as server-sent events on top of the pull
//     /metrics and /snapshot endpoints, and
//   - a batched inference service (POST /infer) answering observation
//     batches with RED (Kmin, Kmax, Pmax) actions from a model bundle
//     loaded at startup, over a pool of controller replicas so the policy
//     hot path stays single-threaded per replica and allocation-free.
//
// With a model store configured, the /models API ingests, gates, promotes
// and hot-swaps versioned bundles on top of it; every bundle, whether a
// fleet checkpoint or an upload, is sha256-verified by the store on read.
package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"pet/internal/bench"
	"pet/internal/sim"
)

// ExperimentSpec is the wire format of POST /experiments: a declarative
// description of one job. Zero values take the same defaults the CLIs use.
type ExperimentSpec struct {
	// Kind selects the job type: "run" (default) executes one measurement
	// scenario; "pretrain" runs the offline training fleet.
	Kind string `json:"kind,omitempty"`

	// Scenario, when present, is a complete bench.ScenarioSpec document —
	// the same versioned JSON the CLIs load with -scenario — and is
	// mutually exclusive with the flat scenario fields below (scheme, topo,
	// workload, load, incast_*, seed, train). It passes through
	// bench.DecodeScenarioSpec, so unknown keys and bad values come back as
	// 400s naming the offending JSON path. Warmup/Duration remain job-level
	// knobs and override the document's when set.
	Scenario json.RawMessage `json:"scenario,omitempty"`

	Scheme    string `json:"scheme,omitempty"`    // registered scheme name (default PET)
	Transport string `json:"transport,omitempty"` // registered transport name (default dcqcn)
	Topo      string `json:"topo,omitempty"`      // topo preset name: tiny|small|medium|paper (default tiny)
	Workload  string `json:"workload,omitempty"`  // websearch|datamining (default websearch)

	Load           float64 `json:"load,omitempty"`            // offered load fraction (default 0.6)
	IncastFraction float64 `json:"incast_fraction,omitempty"` // fraction of load delivered as incast
	IncastFanIn    int     `json:"incast_fan_in,omitempty"`   // senders per incast group

	Seed int64 `json:"seed,omitempty"`

	// Train enables online incremental training (default true, matching
	// petsim); explicit false disables it.
	Train *bool `json:"train,omitempty"`

	// Warmup and Duration are Go duration strings ("20ms", "1s") of
	// simulated time; empty strings take the scenario defaults. For
	// pretrain jobs Duration is the per-episode training time.
	Warmup   string `json:"warmup,omitempty"`
	Duration string `json:"duration,omitempty"`

	// Pretrain-only fleet knobs (see pettrain).
	Workers    int    `json:"workers,omitempty"`    // parallel rollout workers
	Rounds     int    `json:"rounds,omitempty"`     // synchronized merge rounds
	Checkpoint string `json:"checkpoint,omitempty"` // crash-safe checkpoint directory
	Resume     bool   `json:"resume,omitempty"`     // continue from Checkpoint
	Out        string `json:"out,omitempty"`        // write the trained bundle here
	Publish    bool   `json:"publish,omitempty"`    // put the trained bundle into the model store as "candidate"
}

// The job kinds.
const (
	KindRun      = "run"
	KindPretrain = "pretrain"
)

// parseSimDuration converts a Go duration string to simulated time.
func parseSimDuration(field, s string) (sim.Time, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("serve: bad %s %q: %v", field, s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("serve: negative %s %q", field, s)
	}
	return sim.Time(d.Nanoseconds()) * sim.Nanosecond, nil
}

// normalized validates the spec and fills defaults.
func (sp ExperimentSpec) normalized() (ExperimentSpec, error) {
	switch sp.Kind {
	case "":
		sp.Kind = KindRun
	case KindRun, KindPretrain:
	default:
		return sp, fmt.Errorf("serve: unknown job kind %q (want %s|%s)", sp.Kind, KindRun, KindPretrain)
	}
	if sp.Kind != KindPretrain {
		if sp.Workers != 0 || sp.Rounds != 0 || sp.Checkpoint != "" || sp.Resume || sp.Out != "" || sp.Publish {
			return sp, fmt.Errorf("serve: fleet fields (workers/rounds/checkpoint/resume/out/publish) require kind %q", KindPretrain)
		}
	}
	if sp.Load < 0 || sp.Load > 1 {
		return sp, fmt.Errorf("serve: load %g out of range (0,1]", sp.Load)
	}
	if len(sp.Scenario) > 0 {
		if sp.Scheme != "" || sp.Topo != "" || sp.Workload != "" || sp.Load != 0 ||
			sp.IncastFraction != 0 || sp.IncastFanIn != 0 || sp.Seed != 0 || sp.Train != nil {
			return sp, fmt.Errorf("serve: an embedded scenario document is mutually exclusive with the flat scenario fields (scheme/topo/workload/load/incast_*/seed/train)")
		}
		// Decode eagerly so a malformed document fails the launch with a
		// path-naming 400 instead of failing the job asynchronously.
		spec, err := bench.DecodeScenarioSpec(sp.Scenario)
		if err != nil {
			return sp, err
		}
		if _, err := spec.ToScenario(); err != nil {
			return sp, err
		}
		return sp, nil
	}
	if sp.Scheme == "" {
		// The scenario default is the static SECN1 baseline; the daemon's
		// reason to exist is the learned controller, so default like petsim.
		sp.Scheme = string(bench.SchemePET)
	}
	return sp, nil
}

// scenario assembles the bench scenario a spec describes. The returned
// durations are the parsed warmup and measurement/episode windows (zero
// means "use the scenario default").
func (sp ExperimentSpec) scenario() (s bench.Scenario, warmup, duration sim.Time, err error) {
	if len(sp.Scenario) > 0 {
		spec, err := bench.DecodeScenarioSpec(sp.Scenario)
		if err != nil {
			return s, 0, 0, err
		}
		if s, err = spec.ToScenario(); err != nil {
			return s, 0, 0, err
		}
		// Warmup/Duration stay job-level overrides on top of the document.
		if warmup, err = parseSimDuration("warmup", sp.Warmup); err != nil {
			return s, 0, 0, err
		}
		if duration, err = parseSimDuration("duration", sp.Duration); err != nil {
			return s, 0, 0, err
		}
		if warmup > 0 {
			s.Warmup = warmup
		}
		if duration > 0 {
			s.Duration = duration
		}
		return s, s.Warmup, s.Duration, nil
	}
	s.Topo, err = bench.TopoByName(sp.Topo)
	if err != nil {
		return s, 0, 0, err
	}
	s.Workload, err = bench.WorkloadByName(sp.Workload)
	if err != nil {
		return s, 0, 0, err
	}
	s.Beta1, s.Beta2 = bench.DefaultBetas(s.Workload)
	s.Scheme = bench.Scheme(sp.Scheme)
	if err := bench.ValidateScheme(s.Scheme); err != nil {
		return s, 0, 0, err
	}
	s.Transport = bench.TransportKind(sp.Transport)
	if sp.Transport != "" { // empty takes the scenario default
		if err := bench.ValidateTransport(s.Transport); err != nil {
			return s, 0, 0, err
		}
	}
	s.Seed = sp.Seed
	s.Load = sp.Load
	s.IncastFraction = sp.IncastFraction
	s.IncastFanIn = sp.IncastFanIn
	s.Train = sp.Train == nil || *sp.Train
	if warmup, err = parseSimDuration("warmup", sp.Warmup); err != nil {
		return s, 0, 0, err
	}
	if duration, err = parseSimDuration("duration", sp.Duration); err != nil {
		return s, 0, 0, err
	}
	s.Warmup = warmup
	s.Duration = duration
	return s, warmup, duration, nil
}
