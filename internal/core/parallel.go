package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel calls fn(i) once for every i in [0, n) and returns when all calls
// have returned. The calls run over at most GOMAXPROCS goroutines, the
// caller's included, so they must not depend on one another; at GOMAXPROCS 1
// they run in index order on the caller. A panic in any call is re-raised on
// the caller once every call has finished.
func Parallel(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panicked.CompareAndSwap(nil, &v)
				}
			}()
			work()
		}()
	}
	work()
	wg.Wait()
	if v := panicked.Load(); v != nil {
		panic(*v)
	}
}
