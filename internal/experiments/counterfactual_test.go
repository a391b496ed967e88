package experiments

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
)

// TestCounterfactualDifferential extends the PR 1 differential harness to
// the traced runner: for every app × policy in the default suite, a
// RunSourceTraced call with a recording sink and an empty flip-set must
// produce a result %+v-identical and deeply equal to the plain RunSource
// run — decision tracing observes the simulation without perturbing a
// digit of it, which is what keeps suite.golden byte-identical with the
// feature merged. Under -short (the CI race pass) the matrix is trimmed
// like TestStreamingDifferential's.
func TestCounterfactualDifferential(t *testing.T) {
	s := NewDefaultSuite()
	runner, err := sim.NewRunner(s.Config())
	if err != nil {
		t.Fatal(err)
	}
	apps := s.Apps()
	pols := suitePolicies(s)
	if testing.Short() {
		apps = apps[:2] // mozilla (multi-process) and writer
		short := []sim.Policy{s.PolicyBase(), s.PolicyTP(), s.PolicyLT()}
		short = append(short, s.table3Policies()...)
		seen := make(map[string]bool)
		pols = pols[:0]
		for _, p := range short {
			if !seen[p.Name] {
				seen[p.Name] = true
				pols = append(pols, p)
			}
		}
	}
	neverFlip := func(k int64, shutdown bool, pc trace.PC) bool { return false }
	for _, app := range apps {
		traces := s.Traces(app)
		for _, pol := range pols {
			pol := pol
			t.Run(app.Name+"/"+pol.Name, func(t *testing.T) {
				want, err := runner.RunApp(traces, pol)
				if err != nil {
					t.Fatalf("RunApp: %v", err)
				}
				var log trace.DecisionLog
				got, err := runner.RunSourceTraced(trace.NewSliceSource(traces...), pol, sim.TraceOptions{
					Sink: &log,
					Flip: neverFlip,
				})
				if err != nil {
					t.Fatalf("RunSourceTraced: %v", err)
				}
				if wt, gt := fmt.Sprintf("%+v", want), fmt.Sprintf("%+v", got); wt != gt {
					t.Errorf("traced result text differs:\n got %s\nwant %s", gt, wt)
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("traced AppResult not deeply equal to plain one")
				}
				if len(log.Records) != want.DiskAccesses {
					t.Errorf("recorded %d decisions for %d disk accesses", len(log.Records), want.DiskAccesses)
				}
				for i, rec := range log.Records {
					if rec.Flipped() {
						t.Fatalf("record %d flagged flipped under an empty flip-set", i)
					}
				}
			})
		}
	}
}

// decisionGoldenPath holds the committed decision trace of the first
// xemacs execution under PCAP at the default seed.
const decisionGoldenPath = "testdata/xemacs-pcap.pcd"

// goldenDecisionRun records the fixed-seed decision stream the golden
// file pins: xemacs execution 0, PCAP, default configuration.
func goldenDecisionRun(t *testing.T) []trace.DecisionRecord {
	t.Helper()
	s := NewDefaultSuite()
	runner, err := sim.NewRunner(s.Config())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := s.Apps()[0], 0
	for _, a := range s.Apps() {
		if a.Name == "xemacs" {
			app = a
		}
	}
	if app.Name != "xemacs" {
		t.Fatal("xemacs workload missing")
	}
	pol, ok := s.PolicyByName("pcap")
	if !ok {
		t.Fatal("pcap policy missing")
	}
	// Each execution is cut to its first event, which keeps the golden
	// decision file small.
	var heads []*trace.Trace
	for _, tr := range s.Traces(app) {
		head := *tr
		head.Events = tr.Events[:min(1, len(tr.Events))]
		heads = append(heads, &head)
	}
	var log trace.DecisionLog
	src := trace.NewSliceSource(heads...)
	if _, err := runner.RunSourceTraced(src, pol, sim.TraceOptions{Sink: &log}); err != nil {
		t.Fatal(err)
	}
	return log.Records
}

// TestDecisionTraceGolden pins the decision-trace codec's on-disk bytes:
// the fixed-seed run must encode to exactly the committed file, the file
// must decode field-for-field to the live records, and — mirroring the v2
// block contract — any single-bit corruption of the file must surface as
// a decode error. Refresh with -update after an intentional format or
// simulator change.
func TestDecisionTraceGolden(t *testing.T) {
	recs := goldenDecisionRun(t)
	if len(recs) == 0 {
		t.Fatal("golden run produced no decisions")
	}
	var buf bytes.Buffer
	if err := trace.WriteDecisions(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(decisionGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d records, %d bytes)", decisionGoldenPath, len(recs), buf.Len())
		return
	}
	want, err := os.ReadFile(decisionGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("decision trace encoding changed: %d bytes vs committed %d (run with -update after an intentional change)",
			buf.Len(), len(want))
	}
	decoded, err := trace.ReadDecisions(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("decoding committed golden: %v", err)
	}
	if !reflect.DeepEqual(decoded, recs) {
		t.Fatal("decoded golden records differ field-for-field from the live run")
	}
}

// TestDecisionTraceGoldenBitFlips corrupts the committed golden file one
// bit at a time; every mutation must fail decoding, never silently alter
// records. The file is a few KB, so the sweep covers every bit. Skipped
// under -short (the race pass) — the contract is format-level, already
// enforced per-encoding by the trace package's own bit-flip test.
func TestDecisionTraceGoldenBitFlips(t *testing.T) {
	if testing.Short() {
		t.Skip("bit sweep over the golden file; covered by the long pass")
	}
	want, err := os.ReadFile(decisionGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	orig, err := trace.ReadDecisions(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(want)*8; i++ {
		mut := append([]byte(nil), want...)
		mut[i/8] ^= 1 << (i % 8)
		got, err := trace.ReadDecisions(bytes.NewReader(mut))
		if err == nil {
			if reflect.DeepEqual(got, orig) {
				t.Fatalf("bit flip at %d decoded to the original records", i)
			}
			t.Fatalf("bit flip at %d decoded cleanly (%d records)", i, len(got))
		}
	}
}
