package sim

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
)

// TestRunSourcesMatchesRunSource: one shared pass over a multi-execution
// source gives every policy the result of its own RunSource call,
// including a reused-and-round-tripped factory and the global oracle.
func TestRunSourcesMatchesRunSource(t *testing.T) {
	r := mustRunner(t)
	traces := []*trace.Trace{handTrace(0, 30, 42), handTrace(0, 5, 40, 41), handTrace(0, 1)}
	reuse := tpPolicy(10 * trace.Second)
	reuse.Name, reuse.Reuse = "TP-reuse", true
	reuse.RoundTrip = func(f predictor.Factory) (predictor.Factory, error) { return f, nil }
	pols := []Policy{basePolicy(), tpPolicy(10 * trace.Second), reuse, idealPolicy(r.Config().Disk.Breakeven), basePolicy()}

	got, err := r.RunSources(trace.NewSliceSource(traces...), pols)
	if err != nil {
		t.Fatal(err)
	}
	for i, pol := range pols {
		want, err := r.RunSource(trace.NewSliceSource(traces...), pol)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: RunSources = %+v\nwant %+v", pol.Name, got[i], want)
		}
	}
}

// TestRunSourcesValidatesFirst: a malformed policy anywhere in the list,
// or an empty list, fails before the source is read.
func TestRunSourcesValidatesFirst(t *testing.T) {
	r := mustRunner(t)
	src := trace.NewSliceSource(handTrace(0, 1))
	if _, err := r.RunSources(src, []Policy{basePolicy(), {Name: "broken"}}); err == nil {
		t.Error("policy without a factory accepted")
	}
	if _, err := r.RunSources(src, nil); err == nil {
		t.Error("empty policy list accepted")
	}
	if _, _, ok := src.NextExec(); !ok {
		t.Error("source was consumed by a run that failed validation")
	}
}

// TestRunSourcesPoolsStateOnce: on success, on a mid-pass source error
// and on one policy's round-trip failure, the pass hands its pooled
// runState back exactly once — not leaked, not put twice (a double put
// would hand one state to two later runs).
func TestRunSourcesPoolsStateOnce(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	// One P and no GC make the pool deterministic: a Put fills the
	// private slot, the next Get on this goroutine empties it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var v1 bytes.Buffer
	for _, tr := range []*trace.Trace{handTrace(0, 30, 42), handTrace(0, 5, 40)} {
		if err := trace.WriteBinary(&v1, tr); err != nil {
			t.Fatal(err)
		}
	}
	boom := tpPolicy(10 * trace.Second)
	boom.Name, boom.Reuse = "boom", true
	boom.RoundTrip = func(predictor.Factory) (predictor.Factory, error) { return nil, errors.New("boom") }
	pols := []Policy{basePolicy(), tpPolicy(10 * trace.Second), idealPolicy(DefaultConfig().Disk.Breakeven)}

	for _, tc := range []struct {
		name    string
		src     func() trace.Source
		pols    []Policy
		wantErr string
	}{
		{"ok", func() trace.Source { return trace.NewDecoder(bytes.NewReader(v1.Bytes())) }, pols, ""},
		{"source-error", func() trace.Source { return trace.NewDecoder(bytes.NewReader(v1.Bytes()[:v1.Len()-2])) }, pols, "sim: reading trace source"},
		{"round-trip", func() trace.Source { return trace.NewDecoder(bytes.NewReader(v1.Bytes())) },
			[]Policy{basePolicy(), boom, tpPolicy(10 * trace.Second)}, "round-tripping boom after execution 0"},
	} {
		r := mustRunner(t)
		seed := r.getState(len(tc.pols))
		r.putState(seed)
		res, err := r.RunSources(tc.src(), tc.pols)
		switch {
		case tc.wantErr == "" && (err != nil || len(res) != len(tc.pols)):
			t.Errorf("%s: %d results, err = %v", tc.name, len(res), err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr) || res != nil):
			t.Errorf("%s: results %v, err = %v; want no results and an error containing %q", tc.name, res, err, tc.wantErr)
		}
		first, second := r.getState(1), r.getState(1)
		if first != seed {
			t.Errorf("%s: the pass did not hand its runState back to the pool", tc.name)
		}
		if second == seed {
			t.Errorf("%s: the pass handed its runState back twice", tc.name)
		}
	}
}
