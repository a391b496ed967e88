// Package poolsafetest is the poolsafe analyzer's corpus. poolsafe runs
// in every package, so the corpus import path does not matter.
package poolsafetest

import (
	"errors"
	"sync"
)

type buf struct{ b []byte }

type holder struct{ b *buf }

var pool sync.Pool

var errBoom = errors.New("boom")

func use(*buf) {}

func stash(*buf) {}

// MissingPutOnError is a true positive: the error path returns without
// putting the value back.
func MissingPutOnError(fail bool) error {
	b := pool.Get().(*buf)
	if fail {
		return errBoom // want "does not reach Put before this return"
	}
	pool.Put(b)
	return nil
}

// StoreInField is a true positive: a field store gives the pooled value
// a second owner.
func StoreInField(h *holder) {
	b := pool.Get().(*buf)
	h.b = b // want "stored into field"
	pool.Put(b)
}

// Leak is a true positive: returning a pooled value from an unannotated
// function hands out an object the pool may recycle.
func Leak() *buf {
	b := pool.Get().(*buf)
	return b // want "is returned"
}

// Dropped is a true positive: the value goes out of scope without ever
// reaching Put.
func Dropped() {
	b := pool.Get().(*buf) // want "goes out of scope without Put"
	b.b = b.b[:0]
}

// DeferPut is a true negative: the deferred Put covers every path.
func DeferPut(fail bool) error {
	b := pool.Get().(*buf)
	defer pool.Put(b)
	if fail {
		return errBoom
	}
	use(b)
	return nil
}

// PutBoth is a true negative: each path puts before leaving.
func PutBoth(fail bool) error {
	b := pool.Get().(*buf)
	if fail {
		pool.Put(b)
		return errBoom
	}
	use(b)
	pool.Put(b)
	return nil
}

// CommaOk is a true negative: the comma-ok idiom with the value consumed
// inside its scope.
func CommaOk() {
	if b, ok := pool.Get().(*buf); ok {
		use(b)
		pool.Put(b)
	}
}

// release takes ownership of b and returns it to the pool.
//
//pcaplint:owner-transfer
func release(b *buf) {
	pool.Put(b)
}

// Transfer is a true negative: handing the value to an owner-transfer
// function satisfies the Put obligation.
func Transfer() {
	b := pool.Get().(*buf)
	use(b)
	release(b)
}

// getBuf is a true negative: an annotated accessor may hand the pooled
// value to its caller.
//
//pcaplint:owner-transfer
func getBuf() *buf {
	if b, ok := pool.Get().(*buf); ok {
		return b
	}
	return &buf{}
}

// Reuse keeps the corpus honest about the accessor being used.
func Reuse() {
	b := getBuf()
	use(b)
	release(b)
}

// Suppressed documents a consumption path the structural analysis
// cannot follow and silences the analyzer with a reason.
func Suppressed() {
	b := pool.Get().(*buf) //pcaplint:ignore poolsafe stash registers the value with a finalizer that Puts it
	stash(b)
}

// GotoLeak is a seeded leak-on-error-path that only a walk following
// jumps can see: the goto skips the Put straight to the error return. A
// statement-order walk that stops at the goto misses it; the CFG
// dataflow follows the jump and reports it.
func GotoLeak(fail bool) error {
	b := pool.Get().(*buf)
	if fail {
		goto out
	}
	pool.Put(b)
	return nil
out:
	return errBoom // want "does not reach Put before this return"
}

// LabeledBreakLeak is a true positive only the CFG can see: the labeled
// break leaves both loops with the obligation still outstanding, and
// the function falls off its end without a Put on that path.
func LabeledBreakLeak(xs []int) {
	b := pool.Get().(*buf) // want "goes out of scope without Put"
loop:
	for {
		for _, x := range xs {
			if x > 0 {
				break loop
			}
		}
		pool.Put(b)
		return
	}
}

// PutInEveryCase is a true negative for the dataflow: every switch case
// puts the value back before the shared return, so a scan that cannot
// credit a Put inside a case body would report it falsely.
func PutInEveryCase(mode int) error {
	b := pool.Get().(*buf)
	switch mode {
	case 0:
		pool.Put(b)
	default:
		use(b)
		pool.Put(b)
	}
	return nil
}

// SelectPut is a true negative: a select runs exactly one clause and
// both clauses put the value back.
func SelectPut(c chan int) {
	b := pool.Get().(*buf)
	select {
	case <-c:
		pool.Put(b)
	default:
		pool.Put(b)
	}
}

// MissedCase is a true positive: one select clause forgets the Put, so
// the path through it reaches the return obligated.
func MissedCase(c chan int) error {
	b := pool.Get().(*buf)
	select {
	case <-c:
		pool.Put(b)
	default:
		use(b)
	}
	return nil // want "does not reach Put before this return"
}

// DeferInLoop is a true negative: each iteration's deferred Put runs at
// function exit and covers that iteration's value.
func DeferInLoop(n int) {
	for i := 0; i < n; i++ {
		b := pool.Get().(*buf)
		defer pool.Put(b)
		use(b)
	}
}

// PanicExit is a true negative: the non-Put path panics, and panic
// exits are exempt from the Put obligation.
func PanicExit(fail bool) {
	b := pool.Get().(*buf)
	if fail {
		panic("boom")
	}
	pool.Put(b)
}
