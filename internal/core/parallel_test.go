package core

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// Every index runs exactly once at any GOMAXPROCS, and at GOMAXPROCS 1 in
// index order.
func TestParallelCallsEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		const n = 37
		var calls [n]atomic.Int32
		var order []int
		Parallel(n, func(i int) {
			calls[i].Add(1)
			if procs == 1 {
				order = append(order, i)
			}
		})
		runtime.GOMAXPROCS(prev)
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Fatalf("GOMAXPROCS %d: index %d ran %d times", procs, i, got)
			}
		}
		if procs == 1 && !slices.IsSorted(order) {
			t.Fatalf("GOMAXPROCS 1 ran out of order: %v", order)
		}
	}
}

// A panic in a call reaches the caller, whichever goroutine ran the call.
func TestParallelReraisesPanic(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	for _, bad := range []int{0, 7} {
		func() {
			defer func() {
				if v := recover(); v != "boom" {
					t.Fatalf("index %d: recovered %v, want boom", bad, v)
				}
			}()
			Parallel(8, func(i int) {
				if i == bad {
					panic("boom")
				}
			})
		}()
	}
}
