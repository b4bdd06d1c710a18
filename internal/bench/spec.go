package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"pet/internal/sim"
	"pet/internal/topo"
	"pet/internal/workload"
)

// This file is the scenario DSL: one versioned JSON document that describes
// a complete run — topology preset plus overrides, workload mix, scheme ×
// transport, reward weights, durations and perturbation events — and
// round-trips through Encode/Decode into the exact Scenario a Go caller
// would have hand-built. Decoding is strict: unknown keys, malformed values
// and unregistered names all yield a *SpecError naming the offending JSON
// path, never a panic, so the CLIs can exit 2 and petd can answer 400 with
// an actionable message.

// SpecVersion is the current scenario-document version. Documents omitting
// "version" are treated as the current version; documents from a newer
// version are rejected (forward compatibility is explicit, never silent).
// Compatibility policy: within a version, adding optional fields is allowed;
// renaming, retyping or changing the meaning of an existing field requires a
// version bump.
const SpecVersion = 1

// SpecError reports one invalid element of a scenario document: Path is the
// JSON path from the document root ("topo.spines", "events[2].kind"), Reason
// says what is wrong. Err, when non-nil, holds the underlying typed error
// (*UnknownSchemeError, *workload.UnknownWorkloadError, …) for errors.As.
type SpecError struct {
	Path   string
	Reason string
	Err    error
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("scenario spec: %s: %s", e.Path, e.Reason)
}

func (e *SpecError) Unwrap() error { return e.Err }

func specErr(path, format string, args ...any) *SpecError {
	return &SpecError{Path: path, Reason: fmt.Sprintf(format, args...)}
}

func specWrap(path string, err error) *SpecError {
	return &SpecError{Path: path, Reason: err.Error(), Err: err}
}

// SimDuration is simulated time in a scenario document, encoded as a Go
// duration string ("20ms", "1.5s"). sim.Time counts picoseconds, so a time
// that is not a whole number of nanoseconds is written as integer
// picoseconds ("333333333ps") instead: every value round-trips exactly, and
// whole-nanosecond times keep their Go spelling.
type SimDuration sim.Time

// Time converts to engine time.
func (d SimDuration) Time() sim.Time { return sim.Time(d) }

func (d SimDuration) String() string {
	t := sim.Time(d)
	if t%sim.Nanosecond != 0 {
		return strconv.FormatInt(int64(t), 10) + "ps"
	}
	return time.Duration(t / sim.Nanosecond).String()
}

// MarshalJSON encodes the duration as its string form.
func (d SimDuration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// UnmarshalJSON accepts a Go duration string.
func (d *SimDuration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("want a duration string like \"20ms\"")
	}
	return d.Set(s)
}

// Set parses a Go duration string or integer picoseconds ("7ps"),
// rejecting negative durations and ones sim.Time cannot hold. It is the one
// duration parser: documents, petd's job fields and the promotion gate all
// read durations through it.
func (d *SimDuration) Set(s string) error {
	if digits, ok := strings.CutSuffix(s, "ps"); ok {
		ps, err := strconv.ParseInt(digits, 10, 64)
		if err != nil {
			return fmt.Errorf("bad duration %q", s)
		}
		if ps < 0 {
			return fmt.Errorf("negative duration %q", s)
		}
		*d = SimDuration(ps)
		return nil
	}
	dur, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("bad duration %q", s)
	}
	if dur < 0 {
		return fmt.Errorf("negative duration %q", s)
	}
	if dur > time.Duration(math.MaxInt64/int64(sim.Nanosecond)) {
		return fmt.Errorf("duration %q out of range", s)
	}
	*d = SimDuration(sim.Time(dur.Nanoseconds()) * sim.Nanosecond)
	return nil
}

// TopoSpec selects a fabric: a named preset (default "tiny") with optional
// per-field overrides. Bandwidths are Gbps and delays duration strings, so
// documents stay human-readable.
type TopoSpec struct {
	Preset       string       `json:"preset,omitempty"`
	Spines       int          `json:"spines,omitempty"`
	Leaves       int          `json:"leaves,omitempty"`
	HostsPerLeaf int          `json:"hosts_per_leaf,omitempty"`
	HostLinkGbps float64      `json:"host_link_gbps,omitempty"`
	UplinkGbps   float64      `json:"uplink_gbps,omitempty"`
	HostDelay    *SimDuration `json:"host_delay,omitempty"`
	UplinkDelay  *SimDuration `json:"uplink_delay,omitempty"`
}

// resolve materializes the preset-plus-overrides into a validated config.
func (t *TopoSpec) resolve() (topo.LeafSpineConfig, error) {
	preset := "tiny"
	if t != nil && t.Preset != "" {
		preset = t.Preset
	}
	cfg, err := topo.Preset(preset)
	if err != nil {
		return cfg, specWrap("topo.preset", err)
	}
	if t == nil {
		return cfg, nil
	}
	if t.Spines != 0 {
		cfg.Spines = t.Spines
	}
	if t.Leaves != 0 {
		cfg.Leaves = t.Leaves
	}
	if t.HostsPerLeaf != 0 {
		cfg.HostsPerLeaf = t.HostsPerLeaf
	}
	if t.HostLinkGbps != 0 {
		cfg.HostLinkBps = t.HostLinkGbps * 1e9
	}
	if t.UplinkGbps != 0 {
		cfg.UplinkBps = t.UplinkGbps * 1e9
	}
	if t.HostDelay != nil {
		cfg.HostDelay = t.HostDelay.Time()
	}
	if t.UplinkDelay != nil {
		cfg.UplinkDelay = t.UplinkDelay.Time()
	}
	if err := cfg.Validate(); err != nil {
		return cfg, specWrap("topo", err)
	}
	return cfg, nil
}

// CDFPoint is one knot of an inline custom workload CDF.
type CDFPoint struct {
	Bytes int64   `json:"bytes"`
	Frac  float64 `json:"frac"`
}

// WorkloadSpec selects the flow-size distribution: a registered name
// ("websearch", "datamining"), or an inline custom piecewise-linear CDF via
// Points (Name then merely labels it, defaulting to "custom").
type WorkloadSpec struct {
	Name   string     `json:"name,omitempty"`
	Points []CDFPoint `json:"points,omitempty"`
}

// resolve materializes the workload; nil selects the scenario default.
func (w *WorkloadSpec) resolve() (*workload.CDF, error) {
	if w == nil {
		return nil, nil
	}
	if len(w.Points) > 0 {
		name := w.Name
		if name == "" {
			name = "custom"
		}
		pts := make([]workload.Point, len(w.Points))
		for i, p := range w.Points {
			pts[i] = workload.Point{Bytes: p.Bytes, Frac: p.Frac}
		}
		cdf, err := workload.NewCDF(name, pts)
		if err != nil {
			return nil, specWrap("workload.points", err)
		}
		return cdf, nil
	}
	if w.Name == "" {
		return nil, specErr("workload", "need name or points")
	}
	cdf, err := workload.ByName(w.Name)
	if err != nil {
		return nil, specWrap("workload.name", err)
	}
	return cdf, nil
}

// ScenarioSpec is the versioned JSON document describing one complete run.
// Optional fields take exactly the defaults a zero-valued Scenario does;
// pointer fields distinguish "absent" from an explicit zero (an explicit
// load 0 or warmup "0s" survives decoding — see Scenario.ExplicitLoad).
type ScenarioSpec struct {
	// Version is the document version; 0 means current (SpecVersion).
	Version int `json:"version,omitempty"`

	// Name and Notes are free-form labels carried for humans and logs.
	Name  string `json:"name,omitempty"`
	Notes string `json:"notes,omitempty"`

	Topo *TopoSpec `json:"topo,omitempty"`
	Seed int64     `json:"seed,omitempty"`

	Workload       *WorkloadSpec `json:"workload,omitempty"`
	Load           *float64      `json:"load,omitempty"`
	IncastFraction float64       `json:"incast_fraction,omitempty"`
	IncastFanIn    int           `json:"incast_fan_in,omitempty"`

	// Scheme and Transport are registered names; empty takes the scenario
	// defaults (SECN1, dcqcn).
	Scheme    string `json:"scheme,omitempty"`
	Transport string `json:"transport,omitempty"`

	// Betas holds the reward weights [β1, β2]; present means explicit (an
	// explicit [0,0] reaches the axes), absent picks the paper defaults of
	// the document's workload.
	Betas *[2]float64 `json:"betas,omitempty"`

	Train              bool `json:"train,omitempty"`
	TrainDuringMeasure bool `json:"train_during_measure,omitempty"`

	Warmup   *SimDuration `json:"warmup,omitempty"`
	Duration *SimDuration `json:"duration,omitempty"`

	HistoryK     int         `json:"history_k,omitempty"`
	SeriesWindow SimDuration `json:"series_window,omitempty"`

	// Shards is accepted at 0 or 1 for documents written when runs could
	// be sharded; every run uses one event loop, and ToScenario rejects a
	// larger value.
	Shards int `json:"shards,omitempty"`

	Events []EventSpec `json:"events,omitempty"`
}

// DecodeScenarioSpec parses a scenario document strictly: invalid JSON,
// unknown keys and malformed values yield a *SpecError naming the JSON path
// (invalid JSON names the document root).
// Semantic validation (registered names, ranges) happens in ToScenario, so
// Decode∘Encode round-trips even for documents naming schemes that are not
// registered in this process.
func DecodeScenarioSpec(data []byte) (*ScenarioSpec, error) {
	var tree any
	if err := json.Unmarshal(data, &tree); err != nil {
		return nil, specErr(rootedPath(""), "invalid JSON: %v", err)
	}
	if err := checkSpecTree(tree, specShape, ""); err != nil {
		return nil, err
	}
	var spec ScenarioSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		// The shape check above catches everything encoding/json would
		// reject; this is a belt-and-braces fallback.
		return nil, specErr(rootedPath(""), "%v", err)
	}
	if spec.Version > SpecVersion {
		return nil, specErr("version", "document version %d is newer than this binary's %d", spec.Version, SpecVersion)
	}
	return &spec, nil
}

// Encode renders the canonical document form: stable field order, two-space
// indentation, trailing newline — the format the golden files and the
// scenarios/ library are written in.
func (sp *ScenarioSpec) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ToScenario materializes the document into the Scenario a Go caller would
// have hand-built, validating every name against its registry and every
// value against its range. Errors are *SpecError naming the JSON path.
func (sp *ScenarioSpec) ToScenario() (Scenario, error) {
	var s Scenario
	if sp.Version > SpecVersion {
		return s, specErr("version", "document version %d is newer than this binary's %d", sp.Version, SpecVersion)
	}

	cfg, err := sp.Topo.resolve()
	if err != nil {
		return s, err
	}
	s.Topo = cfg
	s.Seed = sp.Seed

	if s.Workload, err = sp.Workload.resolve(); err != nil {
		return s, err
	}

	if sp.Load != nil {
		l := *sp.Load
		if l < 0 || l > 1 || math.IsNaN(l) {
			return s, specErr("load", "%g out of range [0,1]", l)
		}
		s.Load = l
		s.ExplicitLoad = true
	}
	if sp.IncastFraction < 0 || sp.IncastFraction > 1 || math.IsNaN(sp.IncastFraction) {
		return s, specErr("incast_fraction", "%g out of range [0,1]", sp.IncastFraction)
	}
	s.IncastFraction = sp.IncastFraction
	if sp.IncastFanIn < 0 {
		return s, specErr("incast_fan_in", "%d is negative", sp.IncastFanIn)
	}
	s.IncastFanIn = sp.IncastFanIn

	if sp.Scheme != "" {
		if _, err := schemeBuilder(Scheme(sp.Scheme)); err != nil {
			return s, specWrap("scheme", err)
		}
		s.Scheme = Scheme(sp.Scheme)
	}
	if sp.Transport != "" {
		if _, err := transportBuilder(TransportKind(sp.Transport)); err != nil {
			return s, specWrap("transport", err)
		}
		s.Transport = TransportKind(sp.Transport)
	}

	// Absent betas take the paper defaults of the final workload (a nil
	// workload is the WebSearch default).
	s.Beta1, s.Beta2 = defaultBetas(s.Workload)
	if b := sp.Betas; b != nil {
		for i, v := range b {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return s, specErr(fmt.Sprintf("betas[%d]", i), "%g out of range [0,1]", v)
			}
		}
		s.Beta1, s.Beta2 = b[0], b[1]
	}
	s.ExplicitBetas = true

	s.Train = sp.Train
	s.TrainDuringMeasure = sp.TrainDuringMeasure

	if sp.Warmup != nil {
		if *sp.Warmup < 0 {
			return s, specErr("warmup", "negative duration %v", *sp.Warmup)
		}
		s.Warmup = sp.Warmup.Time()
		s.ExplicitWarmup = true
	}
	if sp.Duration != nil {
		if *sp.Duration < 0 {
			return s, specErr("duration", "negative duration %v", *sp.Duration)
		}
		s.Duration = sp.Duration.Time()
	}

	if sp.HistoryK < 0 {
		return s, specErr("history_k", "%d is negative", sp.HistoryK)
	}
	s.HistoryK = sp.HistoryK
	s.SeriesWindow = sp.SeriesWindow.Time()
	switch {
	case sp.Shards < 0:
		return s, specErr("shards", "%d is negative", sp.Shards)
	case sp.Shards > 1:
		return s, specErr("shards", "%d is not supported: every run uses one event loop (0 or 1)", sp.Shards)
	}

	for i, ev := range sp.Events {
		if _, err := ev.compile(); err != nil {
			path := fmt.Sprintf("events[%d]", i)
			var unknown *UnknownEventKindError
			if errors.As(err, &unknown) {
				path += ".kind"
			}
			return s, specWrap(path, err)
		}
	}
	s.Events = sp.Events
	return s, nil
}
