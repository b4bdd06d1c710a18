package registry

import (
	"reflect"
	"sync"
	"testing"
)

type kind string

func TestMapRegisterLookupNames(t *testing.T) {
	var m Map[kind, func() int]
	if _, ok := m.Lookup("a"); ok || len(m.Names()) != 0 {
		t.Fatal("zero Map is not empty")
	}
	m.Register("b", func() int { return 2 })
	m.Register("a", func() int { return 1 })
	if got := m.Names(); !reflect.DeepEqual(got, []kind{"a", "b"}) {
		t.Fatalf("Names() = %v, want sorted [a b]", got)
	}
	if f, ok := m.Lookup("b"); !ok || f() != 2 {
		t.Fatal("Lookup(b) did not return the registered value")
	}
	if _, ok := m.Lookup("c"); ok {
		t.Fatal("Lookup(c) found an unregistered name")
	}
}

func TestMapRegisterPanics(t *testing.T) {
	var m Map[kind, func() int]
	m.Register("a", func() int { return 1 })
	for name, register := range map[string]func(){
		"empty name": func() { m.Register("", func() int { return 0 }) },
		"nil value":  func() { m.Register("b", nil) },
		"duplicate":  func() { m.Register("a", func() int { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", name)
				}
			}()
			register()
		}()
	}
	if got := m.Names(); len(got) != 1 {
		t.Fatalf("rejected registrations left names %v", got)
	}
}

func TestMapConcurrent(t *testing.T) {
	var m Map[kind, func() int]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Register(kind(rune('a'+i)), func() int { return i })
			m.Names()
			m.Lookup("a")
		}()
	}
	wg.Wait()
	if got := len(m.Names()); got != 8 {
		t.Fatalf("%d names after 8 concurrent registrations", got)
	}
}
