package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pcapsim/internal/core"
	"pcapsim/internal/experiments"
	"pcapsim/internal/sim"
)

// The suite workload: the paper's full evaluation, equal to
// `pcapsim -exp all -parallel 2`. Every operation starts from a cold
// experiments.NewSuite, warms the matrix with RunMatrix on two workers
// and renders every experiment.

// poolSize is the worker count of every pool the benchmark drives.
const poolSize = 2

// goldenPath is the committed default-seed suite output, relative to the
// checkout root.
var goldenPath = filepath.Join("internal", "experiments", "testdata", "suite.golden")

// suiteExps is the experiment list the workload runs: all of them, or
// table1 alone at the tiny size.
func suiteExps(cfg config) []string {
	if cfg.tiny {
		return []string{"table1"}
	}
	return experiments.ExperimentNames()
}

// suiteOnce is one untraced operation.
func suiteOnce(seed uint64, exps []string) (string, *experiments.Suite, error) {
	s, err := experiments.NewSuite(seed, sim.DefaultConfig())
	if err != nil {
		return "", nil, err
	}
	if err := s.RunMatrix(poolSize, exps...); err != nil {
		return "", nil, err
	}
	out, err := s.RenderAll(false, exps...)
	return out, s, err
}

// cellStats describes one traced matrix run.
type cellStats struct {
	cells    int
	tracesS  float64 // busy time of trace-generation tasks
	runS     float64 // wall time of the task pool
	renderS  float64
	cellSecs []float64
}

// suiteTraced is one operation with a span around every public call:
// NewSuite, TasksFor, every Task (run through RunTasks on the
// benchmark's own pool of two) and RenderAll.
func suiteTraced(rec *recorder, parent int, seed uint64, exps []string) (string, *experiments.Suite, cellStats, error) {
	var st cellStats
	op := rec.begin("suite.op", parent)
	defer rec.end(op)
	sp := rec.begin("experiments.NewSuite", op)
	s, err := experiments.NewSuite(seed, sim.DefaultConfig())
	rec.end(sp)
	if err != nil {
		return "", nil, st, err
	}
	sp = rec.begin("experiments.TasksFor", op)
	tasks, err := s.TasksFor(exps...)
	rec.end(sp)
	if err != nil {
		return "", nil, st, err
	}

	pool := rec.begin("experiments.RunTasks.pool", op)
	t0 := time.Now()
	errs := make([]error, len(tasks))
	st.cellSecs = make([]float64, len(tasks))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < poolSize; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				kind, _, _ := strings.Cut(tasks[i].Name, "/")
				id := rec.begin("experiments.task/"+kind, pool)
				c0 := time.Now()
				errs[i] = experiments.RunTasks(tasks[i:i+1], 1)
				st.cellSecs[i] = time.Since(c0).Seconds()
				rec.end(id)
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	st.runS = time.Since(t0).Seconds()
	rec.end(pool)
	for i, err := range errs {
		if err != nil {
			return "", nil, st, err
		}
		if strings.HasPrefix(tasks[i].Name, "traces/") {
			st.tracesS += st.cellSecs[i]
		}
	}
	st.cells = len(tasks)

	sp = rec.begin("experiments.RenderAll", op)
	r0 := time.Now()
	out, err := s.RenderAll(false, exps...)
	st.renderS = time.Since(r0).Seconds()
	rec.end(sp)
	return out, s, st, err
}

// suiteWork derives a finished suite's deterministic figures from its
// memoized results (no simulation reruns): the simulation cells run per
// operation, the pre-cache I/O events they consumed, and PCAP's savings
// and misprediction share over the six applications.
func suiteWork(s *experiments.Suite, exps []string) (cells int, events int64, fig []outcome, err error) {
	tasks, err := s.TasksFor(exps...)
	if err != nil {
		return 0, 0, nil, err
	}
	perApp := make(map[string]int)
	for _, t := range tasks {
		// Cell names are "run/<app>/<policy>" or "dev/<device>/run/<app>/<policy>".
		if _, rest, ok := strings.Cut(t.Name, "run/"); ok {
			app, _, _ := strings.Cut(rest, "/")
			perApp[app]++
			cells++
		}
	}
	base, pcap := outcome{policy: "Base"}, outcome{policy: "PCAP"}
	for _, app := range s.Apps() {
		b, err := s.Run(app, s.PolicyBase())
		if err != nil {
			return 0, 0, nil, err
		}
		p, err := s.Run(app, s.PolicyPCAP(core.VariantBase))
		if err != nil {
			return 0, 0, nil, err
		}
		events += int64(b.TotalIOs) * int64(perApp[app.Name])
		base.energy.Add(b.Energy)
		pcap.energy.Add(p.Energy)
		pcap.hits += int64(p.Global.Hits())
		pcap.misses += int64(p.Global.Misses())
	}
	return cells, events, []outcome{base, pcap}, nil
}

func runSuite(r *run) error {
	cfg := r.cfg
	exps := suiteExps(cfg)
	var want string
	setupS, err := timeSetup(func() error {
		// Load the reference output and warm the workload generators
		// and heap; every measured operation still starts cold.
		want = ""
		if cfg.seed == experiments.DefaultSeed && !cfg.tiny {
			b, err := os.ReadFile(goldenPath)
			if err != nil {
				return fmt.Errorf("reading the golden suite output: %w", err)
			}
			want = string(b)
		}
		s, err := experiments.NewSuite(cfg.seed, sim.DefaultConfig())
		if err != nil {
			return err
		}
		for _, app := range s.Apps() {
			s.Traces(app)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// check compares an operation's output with the reference: the
	// golden file at the default seed, else the first operation's
	// output, so every repetition must produce the same digest.
	var first string
	check := func(out string) bool {
		if first == "" {
			first = r.reference(out)
			r.notef("suite digest %s (%d bytes)", digest(out), len(out))
		}
		ok := out == first && (want == "" || out == want)
		if !ok {
			r.notef("suite output mismatch: digest %s, first %s, golden %s", digest(out), digest(first), digest(want))
		}
		return ok
	}

	var cells int
	var events int64
	var fig []outcome
	op := func() error {
		out, s, err := suiteOnce(cfg.seed, exps)
		if err != nil {
			return err
		}
		r.count(check(out))
		if fig == nil {
			// The first operation's memoized results give the work every
			// operation repeats and the model figures. Keeping a finished
			// suite instead would double the live heap of the next one.
			cells, events, fig, err = suiteWork(s, exps)
		}
		return err
	}
	if r.rec != nil {
		return suiteLayers(r, exps, op, check)
	}
	rss := startRSS()
	walls, err := timeOps(cfg.seconds, 3, op)
	peak := rss.stopMB()
	if err != nil {
		return err
	}
	return reportOps(r, opReport{
		walls:    walls,
		setupS:   setupS,
		peakMB:   peak,
		events:   float64(events),
		machines: float64(cells),
		figures:  fig,
	})
}

// suiteLayers is the traced suite run: untraced and traced operations
// alternate, the traced ones yield the experiments.* metrics, and the
// ladder and probes add the layers below and beside.
func suiteLayers(r *run, exps []string, op func() error, check func(string) bool) error {
	var stats []cellStats
	err := alternate(r, 2, "suite.op", op, func() error {
		out, _, st, err := suiteTraced(r.rec, 0, r.cfg.seed, exps)
		if err != nil {
			return err
		}
		r.count(check(out))
		stats = append(stats, st)
		return nil
	})
	if err != nil {
		return err
	}
	setCellMetrics(r, stats)
	if err := ladder(r); err != nil {
		return err
	}
	if err := probeFleet(r); err != nil {
		return err
	}
	return probeServer(r)
}

// setCellMetrics reports the experiments.* layer metrics as medians over
// traced matrix runs.
func setCellMetrics(r *run, stats []cellStats) {
	var cells, tracesS, runS, renderS, p50, maxMs, busy []float64
	for _, st := range stats {
		cells = append(cells, float64(st.cells))
		tracesS = append(tracesS, st.tracesS)
		runS = append(runS, st.runS)
		renderS = append(renderS, st.renderS)
		p50 = append(p50, 1000*median(st.cellSecs))
		maxMs = append(maxMs, 1000*percentile(st.cellSecs, 100))
		sum := 0.0
		for _, c := range st.cellSecs {
			sum += c
		}
		busy = append(busy, sum/(poolSize*st.runS))
	}
	r.set("experiments.cells", median(cells), "count")
	r.set("experiments.traces_s", median(tracesS), "s")
	r.set("experiments.run_s", median(runS), "s")
	r.set("experiments.render_s", median(renderS), "s")
	r.set("experiments.cell_p50_ms", median(p50), "ms")
	r.set("experiments.cell_max_ms", median(maxMs), "ms")
	r.set("experiments.worker_busy_ratio", median(busy), "ratio")
}

// probeSuite measures the experiments layer on workloads that bypass
// it: two traced cold runs of the table1 experiment, whose outputs must
// agree.
func probeSuite(r *run) error {
	probe := r.rec.begin("probe.suite", 0)
	defer r.rec.end(probe)
	var stats []cellStats
	var first string
	for i := 0; i < 2; i++ {
		out, _, st, err := suiteTraced(r.rec, probe, r.cfg.seed, []string{"table1"})
		if err != nil {
			return err
		}
		if i == 0 {
			first = r.reference(out)
		}
		r.count(out == first && out != "")
		stats = append(stats, st)
	}
	setCellMetrics(r, stats)
	return nil
}
