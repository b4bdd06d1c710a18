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
	"cmp"
	"encoding/json"
	"fmt"

	"pet/internal/bench"
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
	if len(sp.Scenario) > 0 {
		if sp.Scheme != "" || sp.Topo != "" || sp.Workload != "" || sp.Load != 0 ||
			sp.IncastFraction != 0 || sp.IncastFanIn != 0 || sp.Seed != 0 || sp.Train != nil {
			return sp, fmt.Errorf("serve: an embedded scenario document is mutually exclusive with the flat scenario fields (scheme/topo/workload/load/incast_*/seed/train)")
		}
	} else if sp.Scheme == "" {
		// The scenario default is the static SECN1 baseline; the daemon's
		// reason to exist is the learned controller, so default like petsim.
		sp.Scheme = string(bench.SchemePET)
	}
	// Assemble eagerly so a bad name or value fails the launch with an error
	// naming it instead of a job that dies asynchronously.
	_, err := sp.scenario()
	return sp, err
}

// scenario assembles the bench scenario a spec describes: the embedded
// document, or else a document holding the flat fields, with the job-level
// warmup and duration written over it. ToScenario validates the result.
func (sp ExperimentSpec) scenario() (bench.Scenario, error) {
	var doc *bench.ScenarioSpec
	if len(sp.Scenario) > 0 {
		var err error
		if doc, err = bench.DecodeScenarioSpec(sp.Scenario); err != nil {
			return bench.Scenario{}, err
		}
	} else {
		doc = &bench.ScenarioSpec{
			Topo:           &bench.TopoSpec{Preset: sp.Topo},
			Seed:           sp.Seed,
			Workload:       &bench.WorkloadSpec{Name: cmp.Or(sp.Workload, "websearch")},
			IncastFraction: sp.IncastFraction,
			IncastFanIn:    sp.IncastFanIn,
			Scheme:         sp.Scheme,
			Transport:      sp.Transport,
			Train:          sp.Train == nil || *sp.Train,
		}
		if sp.Load != 0 { // zero takes the scenario default
			doc.Load = &sp.Load
		}
	}
	if err := setWindow(&doc.Warmup, "warmup", sp.Warmup); err != nil {
		return bench.Scenario{}, err
	}
	if err := setWindow(&doc.Duration, "duration", sp.Duration); err != nil {
		return bench.Scenario{}, err
	}
	return doc.ToScenario()
}

// setWindow writes a job-level warmup or duration over the document's; an
// empty or zero value keeps the document's window (or the scenario default).
func setWindow(dst **bench.SimDuration, field, value string) error {
	if value == "" {
		return nil
	}
	var d bench.SimDuration
	if err := d.Set(value); err != nil {
		return fmt.Errorf("serve: %s: %v", field, err)
	}
	if d > 0 {
		*dst = &d
	}
	return nil
}
