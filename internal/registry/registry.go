// Package registry is the repo's one name-keyed plugin table: schemes,
// transports, event kinds and workloads each keep a Map, fill it from init
// functions, and select from it by the names scenario documents, CLI flags
// and the petd API carry. The typed unknown-name errors stay with the
// packages that own the names.
package registry

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
)

// Map is a concurrency-safe name → value table. The zero value is ready to
// use.
type Map[K ~string, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

// Register adds v under name. It is intended for init functions: an empty
// name, a nil v, or a name registered twice is a bug in the caller and
// panics.
func (r *Map[K, V]) Register(name K, v V) {
	if rv := reflect.ValueOf(v); name == "" || !rv.IsValid() || rv.Kind() == reflect.Func && rv.IsNil() {
		panic(fmt.Sprintf("registry: registering %T with empty name or nil value", v))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(fmt.Sprintf("registry: %T %q registered twice", v, name))
	}
	if r.m == nil {
		r.m = map[K]V{}
	}
	r.m[name] = v
}

// Lookup returns the value registered under name.
func (r *Map[K, V]) Lookup(name K) (V, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.m[name]
	return v, ok
}

// Names lists every registered name, sorted.
func (r *Map[K, V]) Names() []K {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]K, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
