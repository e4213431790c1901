// Package parallel is the shared bounded work scheduler used by every
// hot loop in the repository: fault-injection campaigns (propane.Run),
// the (configuration × fold) cross-validation cells of core.Refine's
// engine (which core.Baseline and core.CrossValidate share) and the
// per-dataset table pass (core.Tables).
//
// The design solves two problems the previous per-package worker pools
// had:
//
//  1. Oversubscription under nesting. Each layer used to size its own
//     pool at GOMAXPROCS, so a parallel dataset loop running parallel
//     cross-validations running parallel campaigns could spawn
//     GOMAXPROCS³ busy goroutines. Here a single process-wide budget
//     (SetBudget, default GOMAXPROCS) bounds the number of concurrently
//     working goroutines across all nesting levels: extra workers are
//     acquired from a global token pool, and a ForEach whose budget is
//     exhausted simply degrades to running on its caller's goroutine.
//
//  2. Error-path deadlock. The old channel-based pools let a worker
//     exit on error without draining its channel, wedging the dispatch
//     loop forever. ForEach has no dispatch loop to wedge: workers claim
//     indices from a shared atomic counter, the caller is always one of
//     the workers, and the first error halts claiming. Completion is
//     therefore guaranteed by construction, whatever fn does.
//
// Role in the methodology: infrastructure for Steps 1, 3 and 4 — it
// carries the campaign fan-out, the fold fan-out and the grid fan-out
// under one budget. Concurrency contract: SetBudget/ForEach are safe to
// call from any goroutine at any nesting depth; fn must tolerate
// running on the caller's goroutine; result determinism is fn's job
// (write to indexed slots, derive RNGs from the index).
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// budget holds the requested global worker budget; <= 0 selects
// GOMAXPROCS at the point of use.
var budget atomic.Int64

// helpers counts live helper goroutines across every ForEach in the
// process. The calling goroutine of each ForEach is not counted: the
// root caller contributes the +1 that makes the total concurrency equal
// to Budget().
var helpers atomic.Int64

// SetBudget sets the process-wide worker budget shared by every ForEach
// call. n <= 0 restores the default (GOMAXPROCS). The budget is the
// total number of goroutines doing work at any instant, regardless of
// how deeply parallel sections nest.
func SetBudget(n int) { budget.Store(int64(n)) }

// Budget returns the effective global worker budget.
func Budget() int {
	if b := int(budget.Load()); b > 0 {
		return b
	}
	return runtime.GOMAXPROCS(0)
}

// Workers resolves a per-call worker request against the global budget
// and the number of jobs: requested <= 0 means "use the budget", and
// the result is clamped to jobs (when jobs > 0) and floored at 1. This
// is the single worker-count resolution rule; call sites must not
// reimplement it.
func Workers(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = Budget()
	}
	if jobs > 0 && w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// tryAcquire reserves one helper slot from the global pool, failing
// without blocking when the budget is spent. Helpers never block on the
// pool: blocked helpers would be the nesting deadlock this package
// exists to remove.
func tryAcquire() bool {
	limit := int64(Budget() - 1)
	for {
		cur := helpers.Load()
		if cur >= limit {
			return false
		}
		if helpers.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func release() { helpers.Add(-1) }

// ForEach runs fn(i) for every i in [0, n) using at most
// Workers(workers, n) concurrent goroutines, further bounded by the
// global budget. The calling goroutine always participates, so ForEach
// makes progress even when the budget is exhausted (it then runs fn
// serially), and nested ForEach calls cannot deadlock or oversubscribe.
//
// On the first fn error, no new indices are claimed; in-flight calls
// finish and the error anchored at the smallest failing index is
// returned. Cancelling ctx likewise stops claiming and returns
// ctx.Err(). fn must be safe for concurrent invocation; writes it makes
// for distinct indices must not alias.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers, n)

	var (
		next    atomic.Int64
		stop    atomic.Bool
		mu      sync.Mutex
		failIdx int
		failErr error
	)
	fail := func(i int, err error) {
		mu.Lock()
		if failErr == nil || i < failIdx {
			failIdx, failErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	run := func() {
		for !stop.Load() && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				fail(i, err)
				return
			}
		}
	}

	var wg sync.WaitGroup
	for extra := w - 1; extra > 0 && tryAcquire(); extra-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			run()
		}()
	}
	run()
	wg.Wait()

	mu.Lock()
	err := failErr
	mu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}
