package bench

import (
	"fmt"

	"pet/internal/netsim"
	"pet/internal/registry"
	"pet/internal/sim"
	"pet/internal/topo"
)

// This file is the pluggable control plane: two name-keyed registries —
// ECN control schemes and end-host transports — behind small interfaces.
// The scheme and transport packages self-register in their init functions
// (core, acc, staticecn, dynecn register schemes; dcqcn, dctcp register
// transports), so the harness assembles any of them by name without
// importing their constructors, and a new scheme or transport lands as a
// single package plus one import — no edits to bench. PET's "no
// server-side changes" claim (Sec. 4.5) is exactly this seam: any
// ECN-reacting transport and any threshold controller plug into the same
// Env.

// ControlScheme is an assembled ECN control strategy driving one Env. A
// SchemeBuilder wires it against the Env's network at assembly time; the
// harness then calls Start exactly once before the simulation runs.
type ControlScheme interface {
	// Start arms the scheme's periodic machinery (tickers, samplers).
	Start()
	// SetTrain toggles online incremental training where the scheme
	// supports it; rule-based and static schemes treat it as a no-op.
	SetTrain(on bool)
	// Overhead reports the scheme's control-plane overhead counters keyed
	// by metric name (see the Overhead* constants). Schemes that incur
	// none return nil.
	Overhead() map[string]int64
}

// ModelScheme is the optional ControlScheme extension for schemes whose
// models can be serialized and restored — the contract the offline
// pre-training pipeline (Sec. 4.4.1) and the rollout fleet require.
type ModelScheme interface {
	ControlScheme
	EncodeModels() ([]byte, error)
	LoadModels(data []byte) error
}

// TrainStats is the optional ControlScheme extension reporting training
// progress, used by the pre-training fleet's per-round summaries.
type TrainStats interface {
	MeanReward() float64
	TotalUpdates() int
}

// Overhead metric keys reported by the built-in schemes. Registered
// schemes may add their own keys; Result carries whatever the scheme
// reports.
const (
	// OverheadReplayBytes is ACC's global replay gossip volume.
	OverheadReplayBytes = "replay_bytes_exchanged"
	// OverheadReplayMemory is ACC's resident replay footprint.
	OverheadReplayMemory = "replay_memory_bytes"
	// OverheadCentralBytes is CTDE's observation volume shipped to the
	// central trainer.
	OverheadCentralBytes = "central_bytes_collected"
)

// FlowEnd summarizes one completed flow transport-agnostically — the
// fields every end-host stack can report regardless of whether it is
// rate-based or window-based.
type FlowEnd struct {
	ID         netsim.FlowID
	Src, Dst   topo.NodeID
	Size       int64
	FCT        sim.Time
	FinishedAt sim.Time
}

// Transport is an assembled end-host congestion-control stack serving one
// Env's hosts. PET tunes switch-side thresholds only, so any ECN-reacting
// transport satisfies the same contract.
type Transport interface {
	// StartFlow opens one src→dst transfer of size bytes on the given
	// data-queue class and returns its network-level flow ID.
	StartFlow(src, dst topo.NodeID, size int64, class int) netsim.FlowID
	// OnFlowComplete adds a completion observer.
	OnFlowComplete(fn func(FlowEnd))
	// OnDataDelivered adds a per-delivered-data-packet observer with the
	// packet's one-way delay.
	OnDataDelivered(fn func(pkt *netsim.Packet, delay sim.Time))
}

// SchemeBuilder assembles a ControlScheme against an Env. The Env's
// network, engine and scenario are fully constructed when the builder
// runs; the scheme must not start its machinery — the harness calls Start.
type SchemeBuilder func(e *Env) (ControlScheme, error)

// TransportBuilder assembles a Transport over an Env's network. It runs
// before the workload generator and control scheme exist.
type TransportBuilder func(e *Env) (Transport, error)

// UnknownSchemeError reports a scenario naming a scheme no package has
// registered.
type UnknownSchemeError struct{ Name Scheme }

func (e *UnknownSchemeError) Error() string {
	return fmt.Sprintf("bench: unknown scheme %q (registered: %v)", e.Name, SchemeNames())
}

// UnknownTransportError reports a scenario naming a transport no package
// has registered.
type UnknownTransportError struct{ Name TransportKind }

func (e *UnknownTransportError) Error() string {
	return fmt.Sprintf("bench: unknown transport %q (registered: %v)", e.Name, TransportNames())
}

var (
	schemes    registry.Map[Scheme, SchemeBuilder]
	transports registry.Map[TransportKind, TransportBuilder]
)

// RegisterScheme makes a control scheme selectable by name via
// Scenario.Scheme. It is intended for use from init functions; registering
// a nil builder, an empty name, or the same name twice panics.
func RegisterScheme(name Scheme, build SchemeBuilder) { schemes.Register(name, build) }

// RegisterTransport makes an end-host transport selectable by name via
// Scenario.Transport. Same contract as RegisterScheme.
func RegisterTransport(name TransportKind, build TransportBuilder) {
	transports.Register(name, build)
}

// SchemeNames lists every registered scheme, sorted.
func SchemeNames() []Scheme { return schemes.Names() }

// TransportNames lists every registered transport, sorted.
func TransportNames() []TransportKind { return transports.Names() }

func schemeBuilder(name Scheme) (SchemeBuilder, error) {
	b, ok := schemes.Lookup(name)
	if !ok {
		return nil, &UnknownSchemeError{Name: name}
	}
	return b, nil
}

func transportBuilder(name TransportKind) (TransportBuilder, error) {
	b, ok := transports.Lookup(name)
	if !ok {
		return nil, &UnknownTransportError{Name: name}
	}
	return b, nil
}
