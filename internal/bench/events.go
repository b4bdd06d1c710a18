package bench

import (
	"fmt"
	"math"

	"pet/internal/registry"
	"pet/internal/topo"
	"pet/internal/workload"
)

// This file holds scheduled perturbations as data. Scenario.Events is a list
// of EventSpecs, and a name-keyed registry of event kinds — mirroring the
// scheme/transport registries — compiles each spec into the hook NewEnv
// schedules.

// EventSpec is one scheduled perturbation. At and Kind are universal; the
// remaining fields parameterize specific kinds and are validated by the
// kind's registered builder (a field foreign to the kind is rejected, so a
// typo cannot silently no-op).
type EventSpec struct {
	// At is the absolute simulation time the perturbation fires, as a Go
	// duration string ("40ms"). Warmup is simulation time too, so events
	// inside the measurement window land at Warmup+offset.
	At SimDuration `json:"at"`

	// Kind names a registered event kind; see EventKindNames.
	Kind string `json:"kind"`

	// link-down / link-up: the affected switch-switch links, either as a
	// fraction of the fabric (ceil(fraction·N), minimum 1) or an absolute
	// count. Selection is deterministic — the first links in fabric order —
	// so a link-up with the same fraction restores exactly the set a prior
	// link-down failed.
	Fraction float64 `json:"fraction,omitempty"`
	Links    int     `json:"links,omitempty"`

	// load-change: the new offered-load fraction [0,1] (0 silences the
	// generator until a later event raises it). workload-switch: the load
	// to run the new workload at; nil keeps the current load.
	Load *float64 `json:"load,omitempty"`

	// workload-switch: the registered workload name to switch to.
	Workload string `json:"workload,omitempty"`

	// incast-burst: Groups many-to-one groups of FanIn senders each sending
	// ChunkBytes, emitted immediately on top of the Poisson processes.
	// Zero values keep the generator's configured fan-in and chunk size;
	// Groups defaults to 1.
	Groups     int   `json:"groups,omitempty"`
	FanIn      int   `json:"fan_in,omitempty"`
	ChunkBytes int64 `json:"chunk_bytes,omitempty"`
}

// EventBuilder validates an EventSpec of its kind and returns the hook to
// run at ev.At. Validation errors must describe the offending field; NewEnv
// and ToScenario add the event's position.
type EventBuilder func(ev EventSpec) (func(*Env), error)

var eventKinds registry.Map[string, EventBuilder]

// RegisterEventKind makes a perturbation kind selectable by name via
// EventSpec.Kind. It is intended for use from init functions; registering a
// nil builder, an empty name, or the same name twice panics.
func RegisterEventKind(kind string, build EventBuilder) { eventKinds.Register(kind, build) }

// EventKindNames lists every registered event kind, sorted.
func EventKindNames() []string { return eventKinds.Names() }

// UnknownEventKindError reports an EventSpec naming a kind no package has
// registered.
type UnknownEventKindError struct{ Kind string }

func (e *UnknownEventKindError) Error() string {
	return fmt.Sprintf("bench: unknown event kind %q (registered: %v)", e.Kind, EventKindNames())
}

// compile resolves the spec against the event-kind registry and returns the
// hook to run at ev.At.
func (ev EventSpec) compile() (func(*Env), error) {
	build, ok := eventKinds.Lookup(ev.Kind)
	if !ok {
		return nil, &UnknownEventKindError{Kind: ev.Kind}
	}
	if ev.At < 0 {
		return nil, fmt.Errorf("at %v is negative", ev.At)
	}
	return build(ev)
}

// requireZero rejects parameter fields foreign to the kind, so a spec that
// sets e.g. "workload" on a link-down event fails loudly instead of
// silently dropping the field.
func (ev EventSpec) requireZero(fields ...string) error {
	for _, f := range fields {
		zero := true
		switch f {
		case "fraction":
			zero = ev.Fraction == 0
		case "links":
			zero = ev.Links == 0
		case "load":
			zero = ev.Load == nil
		case "workload":
			zero = ev.Workload == ""
		case "groups":
			zero = ev.Groups == 0
		case "fan_in":
			zero = ev.FanIn == 0
		case "chunk_bytes":
			zero = ev.ChunkBytes == 0
		}
		if !zero {
			return fmt.Errorf("field %q does not apply to kind %q", f, ev.Kind)
		}
	}
	return nil
}

// linkSet resolves the deterministic switch-link selection of a link event:
// the first Links (or ceil(Fraction·N), minimum 1) links in fabric order.
func (ev EventSpec) linkSet(e *Env) []topo.LinkID {
	all := e.Net.Graph().SwitchLinks()
	n := ev.Links
	if n == 0 {
		n = max(1, int(float64(len(all))*ev.Fraction+0.999))
	}
	return all[:min(n, len(all))]
}

func buildLinkEvent(up bool) EventBuilder {
	return func(ev EventSpec) (func(*Env), error) {
		if err := ev.requireZero("load", "workload", "groups", "fan_in", "chunk_bytes"); err != nil {
			return nil, err
		}
		switch {
		case ev.Fraction < 0 || ev.Fraction > 1:
			return nil, fmt.Errorf("fraction %g out of range [0,1]", ev.Fraction)
		case ev.Links < 0:
			return nil, fmt.Errorf("links %d is negative", ev.Links)
		case ev.Fraction > 0 && ev.Links > 0:
			return nil, fmt.Errorf("fraction and links are mutually exclusive")
		case ev.Fraction == 0 && ev.Links == 0:
			return nil, fmt.Errorf("need fraction or links")
		}
		return func(e *Env) { e.SetLinksUp(ev.linkSet(e), up) }, nil
	}
}

func buildLoadChange(ev EventSpec) (func(*Env), error) {
	if err := ev.requireZero("fraction", "links", "workload", "groups", "fan_in", "chunk_bytes"); err != nil {
		return nil, err
	}
	if ev.Load == nil {
		return nil, fmt.Errorf("need load")
	}
	l := *ev.Load
	if l < 0 || l > 1 || math.IsNaN(l) {
		return nil, fmt.Errorf("load %g out of range [0,1]", l)
	}
	return func(e *Env) { e.Gen.SetWorkload(e.Gen.Config().CDF, l) }, nil
}

func buildWorkloadSwitch(ev EventSpec) (func(*Env), error) {
	if err := ev.requireZero("fraction", "links", "groups", "fan_in", "chunk_bytes"); err != nil {
		return nil, err
	}
	if ev.Workload == "" {
		return nil, fmt.Errorf("need workload")
	}
	cdf, err := workload.ByName(ev.Workload)
	if err != nil {
		return nil, err
	}
	load := -1.0
	if ev.Load != nil {
		load = *ev.Load
		if load < 0 || load > 1 || math.IsNaN(load) {
			return nil, fmt.Errorf("load %g out of range [0,1]", load)
		}
	}
	return func(e *Env) {
		l := load
		if l < 0 {
			l = e.Gen.Config().Load
		}
		e.Gen.SetWorkload(cdf, l)
	}, nil
}

func buildIncastBurst(ev EventSpec) (func(*Env), error) {
	if err := ev.requireZero("fraction", "links", "load", "workload"); err != nil {
		return nil, err
	}
	switch {
	case ev.Groups < 0:
		return nil, fmt.Errorf("groups %d is negative", ev.Groups)
	case ev.FanIn < 0:
		return nil, fmt.Errorf("fan_in %d is negative", ev.FanIn)
	case ev.ChunkBytes < 0:
		return nil, fmt.Errorf("chunk_bytes %d is negative", ev.ChunkBytes)
	}
	return func(e *Env) { e.Gen.Burst(ev.Groups, ev.FanIn, ev.ChunkBytes) }, nil
}

func init() {
	RegisterEventKind("link-down", buildLinkEvent(false))
	RegisterEventKind("link-up", buildLinkEvent(true))
	RegisterEventKind("load-change", buildLoadChange)
	RegisterEventKind("workload-switch", buildWorkloadSwitch)
	RegisterEventKind("incast-burst", buildIncastBurst)
}
