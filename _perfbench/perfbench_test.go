package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pcapsim/internal/experiments"
	"pcapsim/internal/sim"
)

// pcapdBin is the daemon binary TestMain builds for the pcapd workload.
var pcapdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	pcapdBin = filepath.Join(dir, "pcapd")
	build := exec.Command("go", "build", "-o", pcapdBin, "pcapsim/cmd/pcapd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		panic("building pcapd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// contract is the part of BENCHMARK.json the tests check results
// against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyRun(t *testing.T, workload string, seed uint64, trace, tamper bool) (*result, []string) {
	t.Helper()
	res, notes, err := execute(config{
		workload: workload,
		seed:     seed,
		seconds:  0.5,
		trace:    trace,
		tiny:     true,
		work:     t.TempDir(),
		pcapd:    pcapdBin,
		tamper:   tamper,
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, strings.Join(notes, "\n"))
	}
	return res, notes
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks that each result is correct and carries exactly the
// metrics BENCHMARK.json names, with their units.
func TestWorkloadsTiny(t *testing.T) {
	c := readContract(t)
	for _, w := range c.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res, notes := tinyRun(t, name, 7, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, strings.Join(notes, "\n"))
			}
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestTamperedReferenceFails corrupts every workload's expected output
// and checks that the mismatch is reported as failed operations.
func TestTamperedReferenceFails(t *testing.T) {
	for name := range workloads {
		res, _ := tinyRun(t, name, 7, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: tampered reference reported correct=%v with %d of %d failed",
				name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestDigestsFollowTheSeed checks that the workloads' outputs are pure
// functions of the seed: the same seed gives the same digest, another
// seed a different one.
func TestDigestsFollowTheSeed(t *testing.T) {
	suite := func(seed uint64) string {
		out, _, err := suiteOnce(seed, []string{"table1"})
		if err != nil {
			t.Fatal(err)
		}
		return digest(out)
	}
	replay := func(seed uint64) string {
		path := filepath.Join(t.TempDir(), "replay.pct2")
		if err := writeTraceFile(path, appTraces(seed, true)); err != nil {
			t.Fatal(err)
		}
		s, err := experiments.NewSuite(seed, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		_, out, err := replayRows(s, path, replayPolicies)
		if err != nil {
			t.Fatal(err)
		}
		return digest(stripFirstLine(out))
	}
	fleet := func(seed uint64) string {
		out, _, _, err := fleetOnce(fleetConfig(seed, fleetTinyMachines))
		if err != nil {
			t.Fatal(err)
		}
		return digest(out)
	}
	pcapd := func(seed uint64) string {
		return digest(fmt.Sprint(schedule(seed, 0, 40), shapes(seed, make([]upload, kindSeeds["replay"]))))
	}
	for name, d := range map[string]func(uint64) string{"suite": suite, "replay": replay, "fleet": fleet, "pcapd": pcapd} {
		a, b, other := d(11), d(11), d(12)
		if a != b {
			t.Errorf("%s: seed 11 gave digests %s and %s", name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 11 and 12 gave the same digest %s", name, a)
		}
	}
}

// TestSelfTime checks the span arithmetic: self time subtracts the union
// of overlapping children once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	self := selfTime(spans)
	if self[1] != 100-60-10 {
		t.Errorf("op self time %d, want 30", self[1])
	}
	if got := uncoveredShare(spans, "op"); got != 0.3 {
		t.Errorf("uncovered share %v, want 0.3", got)
	}
}

// TestPercentileCountsFailures checks that failed attempts count as
// beyond every latency percentile.
func TestPercentileCountsFailures(t *testing.T) {
	r := &run{metrics: make(map[string]metric)}
	ms := make([]float64, 98)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	setLatency(r, ms, 2)
	if got, limit := r.metrics["latency_p99_ms"].Value, 1000*jobTimeout.Seconds(); got != limit {
		t.Errorf("p99 with 2 failures of 100 = %v, want the job timeout %v", got, limit)
	}
	if got := r.metrics["latency_p50_ms"].Value; got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
}
