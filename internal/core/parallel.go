package core

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Host-side parallelism. Every sweep a scenario runs is a grid of
// independent cells — each cell builds its own testbed.Bed with its own
// virtual clock, machines, links and stacks, and shares nothing with
// its neighbors (the per-bed frame arena in internal/nic closed the
// last global). RunCells exploits that: cells run on a bounded worker
// pool and results are committed by index, so the assembled report is
// byte-identical to the sequential order no matter how the host
// schedules the work.
//
// The knob below also gates the second level — parallel stepping of a
// bed's stack shards between virtual deadlines (testbed.ParallelLoopRunner)
// — so `-parallel 1` restores the fully sequential execution end to end.

// parallelismSetting holds the configured host parallelism: 0 means
// "default" (CHERINET_PARALLEL env override, else GOMAXPROCS).
var parallelismSetting atomic.Int32

// Parallelism reports the host worker count sweeps run cells on. The
// default is GOMAXPROCS (the CHERINET_PARALLEL environment variable
// overrides it, which is how CI pins both sides of its wall-clock
// comparison); SetParallelism overrides both. The result is never
// below 1.
func Parallelism() int {
	if n := int(parallelismSetting.Load()); n > 0 {
		return n
	}
	if s := os.Getenv("CHERINET_PARALLEL"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism sets the host worker count (cherinet's -parallel
// flag). n < 1 restores the default. Safe to call between runs; the
// report text of every scenario is byte-identical at any value.
func SetParallelism(n int) {
	if n < 1 {
		n = 0
	}
	parallelismSetting.Store(int32(n))
}

// RunCells runs n independent sweep cells on at most parallelism
// workers and returns the per-cell results in index order. Cells must
// be independent (each builds its own Bed); run is called with the
// cell index and may be invoked from concurrent goroutines when
// parallelism > 1.
//
// Error semantics: a sequential sweep stops at its first failing cell.
// Under parallelism later cells may already have run, so RunCells runs
// every cell and returns the error of the LOWEST failing index — the
// same error the sequential loop would have surfaced — with a nil
// result slice, keeping the caller-visible outcome deterministic.
func RunCells[T any](parallelism, n int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			r, err := run(i)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweep runs every cell of a scenario sweep through RunCells and
// prefixes a failing cell's error with where(cell), so the reported
// error (the lowest failing index's) names the sweep point it came
// from.
func sweep[C, R any](parallelism int, cells []C, run func(C) (R, error), where func(C) string) ([]R, error) {
	return RunCells(parallelism, len(cells), func(i int) (R, error) {
		r, err := run(cells[i])
		if err != nil {
			return r, fmt.Errorf("%s: %w", where(cells[i]), err)
		}
		return r, nil
	})
}
