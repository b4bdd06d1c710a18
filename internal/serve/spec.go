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

	"pet/internal/bench"
)

// ExperimentSpec is the wire format of POST /experiments: a declarative
// description of one job.
type ExperimentSpec struct {
	// Kind selects the job type: "run" (default) executes one measurement
	// scenario; "pretrain" runs the offline training fleet.
	Kind string `json:"kind,omitempty"`

	// Scenario is the run, as a complete bench.ScenarioSpec document — the
	// same versioned JSON the CLIs load with -scenario. It passes through
	// bench.DecodeScenarioSpec, so unknown keys and bad values come back as
	// 400s naming the offending JSON path. Absent, the job runs
	// defaultScenario. A pretrain job's episode is the document's duration
	// (default fleet.DefaultEpisode).
	Scenario json.RawMessage `json:"scenario,omitempty"`

	// Pretrain-only fleet knobs (see pettrain).
	Workers    int    `json:"workers,omitempty"`    // parallel rollout workers
	Rounds     int    `json:"rounds,omitempty"`     // synchronized merge rounds
	Checkpoint string `json:"checkpoint,omitempty"` // crash-safe checkpoint directory
	Resume     bool   `json:"resume,omitempty"`     // continue from Checkpoint
	Out        string `json:"out,omitempty"`        // write the trained bundle here
	Publish    bool   `json:"publish,omitempty"`    // put the trained bundle into the model store as "candidate"
}

// defaultScenario is the run of a job without a document. The scenario
// default is the static SECN1 baseline; the daemon's reason to exist is the
// learned controller, so it defaults like petsim: PET, training on.
var defaultScenario = json.RawMessage(`{"scheme":"PET","train":true}`)

// The job kinds.
const (
	KindRun      = "run"
	KindPretrain = "pretrain"
)

// normalized validates the spec and fills defaults. It assembles the
// scenario eagerly, so a bad name or value fails the launch with an error
// naming it instead of a job that dies asynchronously.
func (sp ExperimentSpec) normalized() (ExperimentSpec, bench.Scenario, error) {
	switch sp.Kind {
	case "":
		sp.Kind = KindRun
	case KindRun, KindPretrain:
	default:
		return sp, bench.Scenario{}, fmt.Errorf("serve: unknown job kind %q (want %s|%s)", sp.Kind, KindRun, KindPretrain)
	}
	if sp.Kind != KindPretrain {
		if sp.Workers != 0 || sp.Rounds != 0 || sp.Checkpoint != "" || sp.Resume || sp.Out != "" || sp.Publish {
			return sp, bench.Scenario{}, fmt.Errorf("serve: fleet fields (workers/rounds/checkpoint/resume/out/publish) require kind %q", KindPretrain)
		}
	}
	if len(sp.Scenario) == 0 {
		sp.Scenario = defaultScenario
	}
	s, err := sp.scenario()
	return sp, s, err
}

// scenario assembles the bench scenario the spec's document describes;
// ToScenario validates it.
func (sp ExperimentSpec) scenario() (bench.Scenario, error) {
	doc, err := bench.DecodeScenarioSpec(sp.Scenario)
	if err != nil {
		return bench.Scenario{}, err
	}
	return doc.ToScenario()
}
