package bench

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
)

// This file is the strict shape check behind DecodeScenarioSpec: the parsed
// JSON tree is walked alongside the ScenarioSpec struct shape (via
// reflection, so the check can never drift from the struct), and the first
// unknown key or type mismatch becomes a *SpecError naming the exact JSON
// path — "events[2].fraction", not encoding/json's anonymous "unknown
// field". Because the shape is derived from the same struct the document is
// unmarshalled into, anything passing this check unmarshals cleanly.

var (
	specShape   = reflect.TypeOf(ScenarioSpec{})
	simDurShape = reflect.TypeOf(SimDuration(0))
)

// joinPath appends a key to a JSON path.
func joinPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// checkSpecTree validates a decoded JSON value against a Go type shape.
func checkSpecTree(v any, t reflect.Type, path string) error {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if v == nil {
		// JSON null: accepted everywhere encoding/json accepts it
		// (pointers, slices, strings decode to their zero value).
		return nil
	}

	// SimDuration fields carry duration strings despite their integer kind.
	if t == simDurShape {
		s, ok := v.(string)
		if !ok {
			return specErr(rootedPath(path), "want a duration string like \"20ms\"")
		}
		var d SimDuration
		if err := d.Set(s); err != nil {
			return specWrap(rootedPath(path), err)
		}
		return nil
	}

	switch t.Kind() {
	case reflect.Struct:
		m, ok := v.(map[string]any)
		if !ok {
			return specErr(rootedPath(path), "want an object")
		}
		fields := map[string]reflect.Type{}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "-" {
				continue
			}
			if name == "" {
				name = f.Name
			}
			fields[name] = f.Type
		}
		// Deterministic error order: report the lexically first bad key.
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ft, known := fields[k]
			if !known {
				return specErr(rootedPath(joinPath(path, k)), "unknown field")
			}
			if err := checkSpecTree(m[k], ft, joinPath(path, k)); err != nil {
				return err
			}
		}
		return nil

	case reflect.Slice:
		arr, ok := v.([]any)
		if !ok {
			return specErr(rootedPath(path), "want an array")
		}
		for i, el := range arr {
			if err := checkSpecTree(el, t.Elem(), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil

	case reflect.Array:
		arr, ok := v.([]any)
		if !ok || len(arr) != t.Len() {
			return specErr(rootedPath(path), "want an array of %d elements", t.Len())
		}
		for i, el := range arr {
			if err := checkSpecTree(el, t.Elem(), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil

	case reflect.String:
		if _, ok := v.(string); !ok {
			return specErr(rootedPath(path), "want a string")
		}
		return nil

	case reflect.Bool:
		if _, ok := v.(bool); !ok {
			return specErr(rootedPath(path), "want true or false")
		}
		return nil

	case reflect.Float32, reflect.Float64:
		if _, ok := v.(float64); !ok {
			return specErr(rootedPath(path), "want a number")
		}
		return nil

	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f, ok := v.(float64)
		if !ok {
			return specErr(rootedPath(path), "want an integer")
		}
		if f != math.Trunc(f) {
			return specErr(rootedPath(path), "want an integer, got %g", f)
		}
		return nil

	default:
		return specErr(rootedPath(path), "unsupported field type %s", t)
	}
}

// rootedPath names the document root for errors at the top level.
func rootedPath(path string) string {
	if path == "" {
		return "(document root)"
	}
	return path
}
