package topo

import (
	"fmt"
	"sort"

	"pet/internal/sim"
)

// ConfigError reports an invalid leaf-spine parameter. CLIs print it and
// exit with a usage error instead of crashing on a panic deep in the build.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("topo: invalid %s: %s", e.Field, e.Reason)
}

// UnknownPresetError reports a topology preset name that is not registered.
type UnknownPresetError struct {
	Name  string
	Known []string
}

func (e *UnknownPresetError) Error() string {
	return fmt.Sprintf("topo: unknown preset %q (known: %v)", e.Name, e.Known)
}

// presets maps the named -topo values to their configurations. "paper" is
// the 288-host / 12-leaf / 6-spine fabric of the paper's large-scale
// evaluation; the others scale it down preserving the shape.
var presets = map[string]func() LeafSpineConfig{
	"tiny":   TinyScale,
	"small":  SmallScale,
	"medium": MediumScale,
	"paper":  PaperScale,
}

// Presets returns the registered preset names, sorted by fabric size.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := presets[names[i]](), presets[names[j]]()
		return a.Leaves*a.HostsPerLeaf < b.Leaves*b.HostsPerLeaf
	})
	return names
}

// Preset resolves a named topology. Unknown names yield an
// *UnknownPresetError the CLIs turn into a usage-error exit.
func Preset(name string) (LeafSpineConfig, error) {
	f, ok := presets[name]
	if !ok {
		return LeafSpineConfig{}, &UnknownPresetError{Name: name, Known: Presets()}
	}
	return f(), nil
}

// Validate checks a leaf-spine configuration for consistency, returning a
// typed *ConfigError for the first violated constraint. BuildLeafSpine
// panics on an invalid config (an internal invariant); anything assembling
// configs from user input validates first.
func (c LeafSpineConfig) Validate() error {
	switch {
	case c.Spines <= 0:
		return &ConfigError{"spine count", fmt.Sprintf("%d; need at least 1", c.Spines)}
	case c.Leaves <= 0:
		return &ConfigError{"leaf count", fmt.Sprintf("%d; need at least 1", c.Leaves)}
	case c.HostsPerLeaf <= 0:
		return &ConfigError{"hosts per leaf", fmt.Sprintf("%d; need at least 1", c.HostsPerLeaf)}
	case c.HostLinkBps <= 0:
		return &ConfigError{"host link bandwidth", fmt.Sprintf("%g bps; must be positive", c.HostLinkBps)}
	case c.UplinkBps <= 0:
		return &ConfigError{"uplink bandwidth", fmt.Sprintf("%g bps; must be positive", c.UplinkBps)}
	case c.HostDelay < 0:
		return &ConfigError{"host link delay", fmt.Sprintf("%v; cannot be negative", c.HostDelay)}
	case c.UplinkDelay < 0:
		return &ConfigError{"uplink delay", fmt.Sprintf("%v; cannot be negative", c.UplinkDelay)}
	case c.UplinkBps < c.HostLinkBps:
		return &ConfigError{"uplink bandwidth",
			fmt.Sprintf("%g bps is below the host link's %g bps; leaf uplinks cannot be slower than host links", c.UplinkBps, c.HostLinkBps)}
	}
	return nil
}

// MediumScale sits between SmallScale and PaperScale: 72 hosts across 6
// leaves and 3 spines with the paper's 1:1 leaf capacity ratio (12×10 Gbps
// host ports against 3×40 Gbps uplinks per leaf), big enough to load a
// multi-hop fabric without paper-scale runtimes.
func MediumScale() LeafSpineConfig {
	return LeafSpineConfig{
		Spines:       3,
		Leaves:       6,
		HostsPerLeaf: 12,
		HostLinkBps:  10e9,
		UplinkBps:    40e9,
		HostDelay:    1 * sim.Microsecond,
		UplinkDelay:  1 * sim.Microsecond,
	}
}
