package trace

import "fmt"

// Pull-based execution streaming.
//
// A Source is the streaming counterpart of a []*Trace workload: it yields
// the executions of a workload one at a time, so consumers (the simulator,
// the inspection tools, the codec) hold one execution in memory, never
// the whole workload. Executions are the unit because every consumer
// needs a whole one at once: the oracle's lookahead, the file-cache
// filter and the per-execution sort all see the complete execution.
// Sources are single-goroutine iterators: share the factory (an App, a
// TraceCache), never a Source value.

// Source is a pull-based iterator over the executions of a workload,
// each an event stream in non-decreasing time order.
//
// NextExec advances to the next execution and returns its identity;
// ExecEvents then lends that execution's events. Calling NextExec without
// ExecEvents skips the execution (decoders still validate what they
// skip). After NextExec returns ok=false, Err reports whether the stream
// ended or failed.
type Source interface {
	// NextExec advances to the next execution, returning the application
	// name and execution index. ok=false means the workload is exhausted
	// or the source failed (see Err).
	NextExec() (app string, exec int, ok bool)
	// ExecEvents returns the current execution's events. The slice is
	// owned by the source: callers must treat it as read-only and must
	// not retain it past the next NextExec or Reset. A second call for
	// the same execution returns nothing. A decode failure part-way
	// through returns the events before it and sets Err.
	ExecEvents() []Event
	// Err returns the first error the source encountered, or nil.
	Err() error
	// Reset rewinds the source to the beginning of the workload. Sources
	// over non-seekable inputs return an error.
	Reset() error
}

// SliceSource adapts materialized traces to the Source interface — the
// back-compatibility bridge between []*Trace workloads and streaming
// consumers. The traces are lent read-only, never copied.
type SliceSource struct {
	traces []*Trace
	cur    int  // index of the current execution; -1 before the first NextExec
	lent   bool // the current execution's events were handed out
}

// NewSliceSource returns a Source over the given traces, in order.
func NewSliceSource(traces ...*Trace) *SliceSource {
	return &SliceSource{traces: traces, cur: -1}
}

// NextExec implements Source.
func (s *SliceSource) NextExec() (string, int, bool) {
	if s.cur+1 >= len(s.traces) {
		s.cur = len(s.traces)
		return "", 0, false
	}
	s.cur++
	s.lent = false
	t := s.traces[s.cur]
	return t.App, t.Execution, true
}

// ExecEvents implements Source, lending the trace's own event slice.
func (s *SliceSource) ExecEvents() []Event {
	if s.cur < 0 || s.cur >= len(s.traces) || s.lent {
		return nil
	}
	s.lent = true
	return s.traces[s.cur].Events
}

// Err implements Source.
func (s *SliceSource) Err() error { return nil }

// Reset implements Source.
func (s *SliceSource) Reset() error {
	s.cur = -1
	s.lent = false
	return nil
}

// Drain returns src.ExecEvents(); buf is unused.
func Drain(src Source, buf []Event) []Event {
	return src.ExecEvents()
}

// Collect materializes every remaining execution of src as traces —
// the inverse of NewSliceSource, for tests and tools that need slices.
// Events are copied out of the source's lent slices.
func Collect(src Source) ([]*Trace, error) {
	var out []*Trace
	for {
		app, exec, ok := src.NextExec()
		if !ok {
			break
		}
		events := append([]Event(nil), src.ExecEvents()...)
		out = append(out, &Trace{App: app, Execution: exec, Events: events})
	}
	return out, src.Err()
}

// limitExecsSource caps the workload at its first n executions.
type limitExecsSource struct {
	src  Source
	n    int
	seen int
}

// LimitExecs returns a source yielding only the first n executions of
// src, used to carve bounded jobs out of large workloads (pcapd's
// per-job execution cap). The surviving executions' events are the inner
// source's lent slices, passed through as they are.
func LimitExecs(src Source, n int) Source {
	if n < 0 {
		n = 0
	}
	return &limitExecsSource{src: src, n: n}
}

func (l *limitExecsSource) NextExec() (string, int, bool) {
	if l.seen >= l.n {
		return "", 0, false
	}
	app, exec, ok := l.src.NextExec()
	if ok {
		l.seen++
	}
	return app, exec, ok
}

func (l *limitExecsSource) ExecEvents() []Event { return l.src.ExecEvents() }

func (l *limitExecsSource) Err() error { return l.src.Err() }

func (l *limitExecsSource) Reset() error {
	l.seen = 0
	return l.src.Reset()
}

// scaleSource repeats a workload n times.
type scaleSource struct {
	src  Source
	n    int     // total passes
	pass int     // current pass, 0-based
	exec int     // next output execution index
	err  error   // sticky local error (failed Reset between passes)
	buf  []Event // warped copy of the current execution, passes >= 1
}

// Scale returns a source that yields the executions of src n times over —
// an N×-repeated workload for stress and scaling runs. Execution indices
// are renumbered sequentially from 0 across the passes. Repetition r
// warps every timestamp by the deterministic stretch t → t + (t/1024)·r,
// modelling run-to-run timing drift: repeated sessions keep their I/O
// structure (PC paths, burst shapes) but never replay microsecond-
// identical think times. Pass 0 is the identity, and Scale(src, 1)
// returns src itself, so a 1× scaled workload is byte-for-byte the
// original. src must support Reset for n > 1.
func Scale(src Source, n int) Source {
	if n <= 1 {
		return src
	}
	return &scaleSource{src: src, n: n}
}

// warpTime applies pass r's timestamp stretch. Integer arithmetic keeps
// the warp deterministic and (weakly) monotone, preserving non-decreasing
// event order within an execution.
func warpTime(t Time, r int) Time {
	if t < 0 {
		return t
	}
	return t + (t/1024)*Time(r)
}

// WarpTime is pass r's deterministic timestamp stretch, t → t +
// (t/1024)·r — the drift model Scale applies between repetitions,
// exported so other repeat-replay layers (fleet trace replay) warp
// identically.
func WarpTime(t Time, r int) Time { return warpTime(t, r) }

func (s *scaleSource) NextExec() (string, int, bool) {
	if s.err != nil {
		return "", 0, false
	}
	for {
		app, _, ok := s.src.NextExec()
		if ok {
			exec := s.exec
			s.exec++
			return app, exec, true
		}
		if err := s.src.Err(); err != nil {
			return "", 0, false
		}
		if s.pass+1 >= s.n {
			return "", 0, false
		}
		if err := s.src.Reset(); err != nil {
			s.err = fmt.Errorf("trace: scale pass %d: %w", s.pass+1, err)
			return "", 0, false
		}
		s.pass++
	}
}

// ExecEvents implements Source. Pass 0 is the identity, so it lends the
// inner slice as is; later passes write the warped copy into the
// source's own buffer.
func (s *scaleSource) ExecEvents() []Event {
	events := s.src.ExecEvents()
	if s.pass == 0 {
		return events
	}
	s.buf = s.buf[:0]
	for _, e := range events {
		e.Time = warpTime(e.Time, s.pass)
		s.buf = append(s.buf, e)
	}
	return s.buf
}

func (s *scaleSource) Err() error {
	if s.err != nil {
		return s.err
	}
	return s.src.Err()
}

func (s *scaleSource) Reset() error {
	if err := s.src.Reset(); err != nil {
		return err
	}
	s.pass = 0
	s.exec = 0
	s.err = nil
	return nil
}
