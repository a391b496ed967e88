// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator's shipped layers from outside, through their public
// functions, on one of four workloads:
//
//	suite   the paper's full evaluation (pcapsim -exp all -parallel 2)
//	replay  an indexed v2 trace file replayed through base,tp,pcap,ideal
//	fleet   a fleet comparison of base,tp,pcap on 150 machines
//	pcapd   a pcapd daemon driven by two closed-loop clients
//
// Usage (normally through run.sh, which builds the binaries first):
//
//	perfbench --workload suite --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics; with --trace 1
// it records spans around every public call it makes, runs the per-layer
// ladder and reports the per-layer metrics, and writes the spans to
// <work>/spans. Every operation's output is checked; a mismatch counts as
// a failed operation. The last line of standard output is the result
// object; the lines before it carry run metadata and sample counts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// maxProcs is the stated GOMAXPROCS of every process the benchmark runs:
// the load is sized for a two-CPU machine.
const maxProcs = 2

// setupRepeats is how many times each workload's set-up runs; setup_s is
// their median, which drops the first set-up's process start-up costs
// and short stalls of the machine.
const setupRepeats = 5

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a few seconds in total; the
	// benchmark's own tests use it.
	tiny bool
	// work is the directory for generated inputs, daemon temporary files
	// and span files.
	work string
	// pcapd is the daemon binary the pcapd workload starts.
	pcapd string
	// tamper corrupts every reference output, so the benchmark's tests
	// can show that a mismatch is counted as a failure.
	tamper bool
}

// run is the state of one benchmark run: its configuration, the
// operations counted so far, the metrics and the span recorder (nil when
// untraced).
type run struct {
	cfg       config
	rec       *recorder
	attempted int
	failed    int
	metrics   map[string]metric
	// notes are the informational lines printed before the result.
	notes []string
}

func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// count records the outcome of one operation.
func (r *run) count(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// reference returns an expected output, corrupted when the run tampers.
func (r *run) reference(want string) string {
	if r.cfg.tamper {
		return want + "tampered"
	}
	return want
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"suite":  runSuite,
	"replay": runReplay,
	"fleet":  runFleet,
	"pcapd":  runPcapd,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: suite, replay, fleet or pcapd")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measurement budget in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "directory for generated inputs, daemon temporary files and spans")
	flag.StringVar(&cfg.pcapd, "pcapd", ".bench_build/bin/pcapd", "pcapd binary for the pcapd workload")
	flag.Parse()
	cfg.trace = traceFlag == 1

	// Temporary files, an in-process server's uploads among them, stay
	// inside the work directory.
	tmp := filepath.Join(cfg.work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fatal(err)
	}
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		fatal(err)
	}

	res, notes, err := execute(cfg)
	for _, n := range notes {
		fmt.Println(n)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// execute runs one workload and returns its result and informational
// lines. An error means the benchmark itself could not run; failed
// operations are reported in the result instead.
func execute(cfg config) (*result, []string, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want suite, replay, fleet or pcapd)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, nil, errors.New("--seconds must be positive")
	}
	runtime.GOMAXPROCS(maxProcs)
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, nil, err
	}
	r := &run{cfg: cfg, metrics: make(map[string]metric)}
	meta, err := runMetadata(cfg)
	if err != nil {
		return nil, nil, err
	}
	r.notes = append(r.notes, meta)
	if cfg.trace {
		r.rec = newRecorder(fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, time.Now().UnixNano()))
	}
	if err := drive(r); err != nil {
		return nil, r.notes, err
	}
	if r.rec != nil {
		path, err := r.rec.write(cfg.work)
		if err != nil {
			return nil, r.notes, err
		}
		r.notef("spans: %d written to %s", len(r.rec.spans), path)
		r.notes = append(r.notes, r.rec.selfTimeTable(12)...)
	}
	if r.attempted == 0 {
		return nil, r.notes, errors.New("no operation was attempted")
	}
	return &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, r.notes, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeOps runs op repeatedly for the run's budget: at least minOps
// times, and further while the next operation is expected to end inside
// the budget. It returns each operation's wall time in seconds.
func timeOps(budget float64, minOps int, op func() error) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for {
		t0 := time.Now()
		if err := op(); err != nil {
			return walls, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		if len(walls) >= minOps && time.Since(start).Seconds()+median(walls) > budget {
			return walls, nil
		}
	}
}

// alternate is the traced runs' timing loop: untraced and traced
// operations take turns for the run's budget, at least minPairs of each.
// It reports the tracing overhead (traced against untraced median wall)
// and the share of the opName spans' wall time that no child span
// covers.
func alternate(r *run, minPairs int, opName string, plain, traced func() error) error {
	var plainWalls, tracedWalls []float64
	start := time.Now()
	for len(tracedWalls) < minPairs || time.Since(start).Seconds()+2*median(tracedWalls) < r.cfg.seconds {
		t0 := time.Now()
		if err := plain(); err != nil {
			return err
		}
		plainWalls = append(plainWalls, time.Since(t0).Seconds())
		t0 = time.Now()
		if err := traced(); err != nil {
			return err
		}
		tracedWalls = append(tracedWalls, time.Since(t0).Seconds())
	}
	r.set("bench.trace_overhead_pct", 100*(median(tracedWalls)/median(plainWalls)-1), "%")
	r.set("bench.uncovered_pct", 100*uncoveredShare(r.rec.snapshot(), opName), "%")
	r.notef("%s: %d untraced (median %.3f s), %d traced (median %.3f s)",
		opName, len(plainWalls), median(plainWalls), len(tracedWalls), median(tracedWalls))
	return nil
}

// timeSetup runs setup setupRepeats times and returns the median wall
// time in seconds.
func timeSetup(setup func() error) (float64, error) {
	var walls []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls), nil
}
