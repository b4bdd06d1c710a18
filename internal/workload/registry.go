package workload

import (
	"fmt"

	"pet/internal/registry"
)

// This file is the named-workload registry: flow-size distributions register
// under a stable lowercase name so scenario specs, the CLIs and the petd
// experiment API all select workloads by the same strings — mirroring the
// scheme/transport registries of internal/bench. The built-in distributions
// (websearch, datamining) self-register below; external packages may add
// their own via Register, and inline custom CDFs bypass the registry through
// NewCDF.

// UnknownWorkloadError reports a workload name no package has registered.
type UnknownWorkloadError struct {
	Name  string
	Known []string
}

func (e *UnknownWorkloadError) Error() string {
	return fmt.Sprintf("workload: unknown workload %q (registered: %v)", e.Name, e.Known)
}

var workloads registry.Map[string, func() *CDF]

// Register makes a flow-size distribution selectable by name. It is intended
// for use from init functions; registering a nil constructor, an empty name,
// or the same name twice panics.
func Register(name string, build func() *CDF) { workloads.Register(name, build) }

// ByName returns a fresh copy of the distribution registered under name.
// Unknown names yield an *UnknownWorkloadError.
func ByName(name string) (*CDF, error) {
	build, ok := workloads.Lookup(name)
	if !ok {
		return nil, &UnknownWorkloadError{Name: name, Known: Names()}
	}
	return build(), nil
}

// Names lists every registered workload, sorted.
func Names() []string { return workloads.Names() }

func init() {
	Register("websearch", WebSearch)
	Register("datamining", DataMining)
}
