package trace

import (
	"bytes"
	"fmt"
	"testing"
)

// contractTraces is the workload every contract row serves: two
// multi-block executions around an empty one.
func contractTraces() []*Trace {
	a := seedTraceV2()
	empty := &Trace{App: "empty", Execution: 1}
	b := seedTraceV2()
	b.App, b.Execution = "other", 5
	b.Events = b.Events[:60]
	return []*Trace{a, empty, b}
}

// encodeAll concatenates the per-execution encodings of traces.
func encodeAll(t *testing.T, traces []*Trace, encode func(*bytes.Buffer, *Trace) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tr := range traces {
		if err := encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// contractRow is one Source implementation under the contract, with the
// traces it must yield.
type contractRow struct {
	name string
	open func() Source
	want []*Trace
}

func contractRows(t *testing.T) []contractRow {
	traces := contractTraces()
	v1 := encodeAll(t, traces, func(w *bytes.Buffer, tr *Trace) error { return WriteBinary(w, tr) })
	text := encodeAll(t, traces, func(w *bytes.Buffer, tr *Trace) error { return WriteText(w, tr) })
	v2 := encodeAll(t, traces, func(w *bytes.Buffer, tr *Trace) error {
		_, err := w.Write(encodeV2(t, tr, 16))
		return err
	})

	pred := Predicate{Pid: 2}
	var filtered []*Trace
	for _, tr := range traces {
		f := &Trace{App: tr.App, Execution: tr.Execution}
		for _, e := range tr.Events {
			if pred.MatchEvent(e) {
				f.Events = append(f.Events, e)
			}
		}
		filtered = append(filtered, f)
	}
	var scaled []*Trace
	for pass := 0; pass < 3; pass++ {
		for _, tr := range traces {
			s := &Trace{App: tr.App, Execution: len(scaled)}
			for _, e := range tr.Events {
				e.Time = warpTime(e.Time, pass)
				s.Events = append(s.Events, e)
			}
			scaled = append(scaled, s)
		}
	}

	slice := func() Source { return NewSliceSource(traces...) }
	rows := []contractRow{
		{"SliceSource", slice, traces},
		{"Decoder", func() Source { return NewDecoder(bytes.NewReader(v1)) }, traces},
		{"TextDecoder", func() Source { return NewTextDecoder(bytes.NewReader(text)) }, traces},
		{"BlockSource", func() Source { return NewBlockSource(bytes.NewReader(v2)) }, traces},
		{"FilterEvents", func() Source { return FilterEvents(slice(), pred) }, filtered},
		{"LimitExecs", func() Source { return LimitExecs(slice(), 2) }, traces[:2]},
		{"Scale1", func() Source { return Scale(slice(), 1) }, traces},
		{"Scale3", func() Source { return Scale(slice(), 3) }, scaled},
	}
	for _, workers := range []int{1, 4} {
		rows = append(rows, contractRow{
			fmt.Sprintf("ParallelSource%d", workers),
			func() Source {
				ps := NewParallelSource(bytes.NewReader(v2), workers)
				t.Cleanup(func() { ps.Close() })
				return ps
			},
			traces,
		})
	}
	return rows
}

// TestSourceContract runs every Source implementation through the
// execution-lending contract of trace.Source.
func TestSourceContract(t *testing.T) {
	for _, row := range contractRows(t) {
		t.Run(row.name, func(t *testing.T) {
			checkTraces := func(what string, got []*Trace, want []*Trace) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d executions, want %d", what, len(got), len(want))
				}
				for i := range want {
					if !tracesEqual(got[i], want[i]) {
						t.Fatalf("%s: execution %d = %s/%d (%d events), want %s/%d (%d events)", what, i,
							got[i].App, got[i].Execution, len(got[i].Events),
							want[i].App, want[i].Execution, len(want[i].Events))
					}
				}
			}

			// Events equal Collect over the source traces, and Reset
			// replays them identically.
			src := row.open()
			got, err := Collect(src)
			if err != nil {
				t.Fatal(err)
			}
			checkTraces("Collect", got, row.want)
			if err := src.Reset(); err != nil {
				t.Fatal(err)
			}
			again, err := Collect(src)
			if err != nil {
				t.Fatal(err)
			}
			checkTraces("after Reset", again, row.want)

			// NextExec without ExecEvents skips an execution cleanly, and
			// a second ExecEvents call returns nothing.
			src = row.open()
			var kept, wantKept []*Trace
			for i := 0; ; i++ {
				app, exec, ok := src.NextExec()
				if !ok {
					break
				}
				if i%2 == 1 {
					continue
				}
				events := append([]Event(nil), src.ExecEvents()...)
				if second := src.ExecEvents(); len(second) != 0 {
					t.Fatalf("execution %d: second ExecEvents lent %d events", i, len(second))
				}
				kept = append(kept, &Trace{App: app, Execution: exec, Events: events})
				wantKept = append(wantKept, row.want[i])
			}
			if err := src.Err(); err != nil {
				t.Fatal(err)
			}
			checkTraces("skipping odd executions", kept, wantKept)
		})
	}
}

// TestSkippedCorruptBlockSurfaces corrupts the last block of the first
// execution and skips that execution without lending it: the decoder
// still decodes what it skips, so the corruption must surface in Err on
// the sequential and the parallel decoder alike.
func TestSkippedCorruptBlockSurfaces(t *testing.T) {
	traces := contractTraces()
	first := encodeV2(t, traces[0], 16)
	first[len(first)-3] ^= 0x10
	data := append(first, encodeV2(t, traces[2], 16)...)
	sources := map[string]Source{
		"BlockSource":     NewBlockSource(bytes.NewReader(data)),
		"ParallelSource1": NewParallelSource(bytes.NewReader(data), 1),
		"ParallelSource4": NewParallelSource(bytes.NewReader(data), 4),
	}
	for name, src := range sources {
		if _, _, ok := src.NextExec(); !ok {
			t.Fatalf("%s: the first header is intact, NextExec failed: %v", name, src.Err())
		}
		if _, _, ok := src.NextExec(); ok {
			t.Errorf("%s: NextExec skipped past a corrupt block", name)
		}
		if src.Err() == nil {
			t.Errorf("%s: corrupt block in a skipped execution did not surface in Err", name)
		}
		if ps, ok := src.(*ParallelSource); ok {
			ps.Close()
		}
	}
}

// TestWrappersLendInnerSlice pins that the pass-through wrappers lend
// the inner source's slice itself rather than a copy.
func TestWrappersLendInnerSlice(t *testing.T) {
	traces := contractTraces()
	inner := &traces[0].Events[0]
	for name, src := range map[string]Source{
		"LimitExecs": LimitExecs(NewSliceSource(traces...), 2),
		"Scale1":     Scale(NewSliceSource(traces...), 1),
		"Scale3":     Scale(NewSliceSource(traces...), 3), // pass 0 is the identity
	} {
		if _, _, ok := src.NextExec(); !ok {
			t.Fatalf("%s: NextExec failed", name)
		}
		if events := src.ExecEvents(); len(events) == 0 || &events[0] != inner {
			t.Errorf("%s: ExecEvents does not lend the inner slice", name)
		}
	}
}
