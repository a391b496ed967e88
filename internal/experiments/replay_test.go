package experiments

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// raceDetectorEnabled is flipped to true by race_test.go when the race
// detector is compiled in (see TestReplayRowsWarmAllocs).
var raceDetectorEnabled bool

// writeReplayFiles writes traces to dir in every on-disk format replay
// accepts and returns the paths by format name.
func writeReplayFiles(t *testing.T, dir string, traces []*trace.Trace) map[string]string {
	t.Helper()
	paths := map[string]string{}
	for _, format := range []string{"v1", "v2", "text"} {
		var buf bytes.Buffer
		var err error
		switch format {
		case "v1":
			for _, tr := range traces {
				if err = trace.WriteBinary(&buf, tr); err != nil {
					break
				}
			}
		case "v2":
			err = trace.WriteColumnarIndexed(&buf, traces...)
		case "text":
			for _, tr := range traces {
				if err = trace.WriteText(&buf, tr); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatalf("%s encode: %v", format, err)
		}
		paths[format] = filepath.Join(dir, "app."+format)
		if err := os.WriteFile(paths[format], buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// noReset wraps a source whose Reset always fails: a one-pass source.
type noReset struct{ trace.Source }

func (noReset) Reset() error { return errors.New("one-pass source cannot rewind") }

// TestReplayRowsSharedPassDifferential pins the shared pass against the
// independent runs it replaces: for every replay policy, sim.RunSources
// and ReplayRows over one pass must return AppResults deep-equal to a
// separate RunSource call per policy over a fresh source — across every
// file format and decode path, predicate pushdown, an execution cap, a
// repeated policy name and a source that cannot Reset.
func TestReplayRowsSharedPassDifferential(t *testing.T) {
	s, err := NewSuite(DefaultSeed, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName("nedit")
	traces := s.Traces(app)
	if testing.Short() {
		traces = traces[:4]
	}
	paths := writeReplayFiles(t, t.TempDir(), traces)

	open := func(path string, opts trace.OpenOptions) func(*testing.T) trace.Source {
		return func(t *testing.T) trace.Source {
			fs, err := trace.OpenTraceFileOpts(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			return fs
		}
	}
	v2 := open(paths["v2"], trace.OpenOptions{})
	names := ReplayPolicyNames()
	cases := []struct {
		name     string
		src      func(*testing.T) trace.Source
		policies []string
	}{
		{"v1", open(paths["v1"], trace.OpenOptions{}), names},
		{"v2-sequential", v2, names},
		{"v2-parallel", open(paths["v2"], trace.OpenOptions{Workers: 2}), names},
		{"text", open(paths["text"], trace.OpenOptions{}), names},
		{"v2-pushdown", open(paths["v2"], trace.OpenOptions{Pred: trace.Predicate{To: trace.FromSeconds(60)}}), names},
		{"limit-execs", func(t *testing.T) trace.Source { return trace.LimitExecs(v2(t), 2) }, names},
		{"repeated-policy", v2, []string{"pcap", "tp", "pcap", "lt", "lt"}},
		{"no-reset", func(*testing.T) trace.Source { return noReset{trace.NewSliceSource(traces...)} }, names},
		{"default-policies", open(paths["v1"], trace.OpenOptions{}), nil},
	}
	runner := sim.MustNewRunner(s.Config())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			policies := tc.policies
			if policies == nil {
				policies = DefaultReplayPolicies
			}
			pols := make([]sim.Policy, len(policies))
			want := make([]*sim.AppResult, len(policies))
			for i, name := range policies {
				pol, ok := s.PolicyByName(name)
				if !ok {
					t.Fatalf("unknown policy %q", name)
				}
				pols[i] = pol
				var err error
				if want[i], err = runner.RunSource(tc.src(t), pol); err != nil {
					t.Fatalf("RunSource under %s: %v", pol.Name, err)
				}
			}

			got, err := runner.RunSources(tc.src(t), pols)
			if err != nil {
				t.Fatalf("RunSources: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("RunSources under %s:\n got %+v\nwant %+v", pols[i].Name, got[i], want[i])
					}
				}
			}

			var observed []ReplayRow
			rows, err := s.ReplayRowsObserved(tc.src(t), tc.policies, func(row ReplayRow) {
				observed = append(observed, row)
			})
			if err != nil {
				t.Fatalf("ReplayRowsObserved: %v", err)
			}
			if len(rows) != len(want) {
				t.Fatalf("ReplayRows returned %d rows, want %d", len(rows), len(want))
			}
			for i, row := range rows {
				if row.Policy != pols[i].Name || !reflect.DeepEqual(row.Result, want[i]) {
					t.Errorf("ReplayRows row %d (%s):\n got %+v\nwant %+v", i, row.Policy, row.Result, want[i])
				}
			}
			if !reflect.DeepEqual(observed, rows) {
				t.Errorf("observe saw %d rows, not the returned rows in order", len(observed))
			}
		})
	}
}

// touchSource fails the test if the simulation touches it at all.
type touchSource struct {
	trace.Source
	t *testing.T
}

func (s touchSource) NextExec() (string, int, bool) {
	s.t.Error("source touched before the policy list was validated")
	return s.Source.NextExec()
}

// TestReplayRowsErrors: an unknown policy name fails before any decode, a
// source failing mid-pass fails the whole replay, and neither fires the
// observe hook.
func TestReplayRowsErrors(t *testing.T) {
	s, err := NewSuite(DefaultSeed, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName("nedit")
	traces := s.Traces(app)[:3]
	observe := func(ReplayRow) { t.Error("observe fired for a failed replay") }

	src := touchSource{trace.NewSliceSource(traces...), t}
	if _, err := s.ReplayRowsObserved(src, []string{"base", "nosuch"}, observe); err == nil {
		t.Error("unknown policy name accepted")
	}

	var v1 bytes.Buffer
	encodeApp(t, &v1, traces, "v1")
	cut := v1.Bytes()[:v1.Len()-3]
	_, err = s.ReplayRowsObserved(trace.NewDecoder(bytes.NewReader(cut)), []string{"base", "tp", "pcap"}, observe)
	if !errors.Is(err, trace.ErrBadFormat) {
		t.Errorf("truncated source: err = %v, want a wrapped trace.ErrBadFormat", err)
	}
}

// TestReplayRowsWarmAllocs pins the allocation count of a warm 4-policy
// replay. The pass's runState — drain buffer, file cache arena, filtered
// slice, prepared execution — is pooled and exists once per pass; a
// leaked state, or one duplicated per policy, re-grows all of it on every
// run and blows through the bound.
func TestReplayRowsWarmAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops items under -race")
	}
	s, err := NewSuite(DefaultSeed, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName("nedit")
	var v2 bytes.Buffer
	if err := trace.WriteColumnarIndexed(&v2, s.Traces(app)[:3]...); err != nil {
		t.Fatal(err)
	}
	src := trace.NewBlockSource(bytes.NewReader(v2.Bytes()))
	run := func() {
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReplayRows(src, DefaultReplayPolicies); err != nil {
			t.Fatal(err)
		}
	}
	run() // warmup: the pooled runState reaches its high-water mark
	allocs := testing.AllocsPerRun(10, run)
	// Measured on go1.24/amd64: 103 allocations per warm run, nearly all
	// of them the policies' own predictor state (PCAP tables, per-pid
	// maps) and the result rows. A runState that is never handed back to
	// the pool regrows on every run, costing about 106 more.
	const bound = 150
	t.Logf("warm 4-policy ReplayRows: %.0f allocs (bound %d)", allocs, bound)
	if allocs > bound {
		t.Errorf("warm 4-policy ReplayRows: %.0f allocs, want <= %d (leaked or per-policy runState?)", allocs, bound)
	}
}
