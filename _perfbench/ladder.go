package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pcapsim/internal/core"
	"pcapsim/internal/experiments"
	"pcapsim/internal/fscache"
	"pcapsim/internal/predictor"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// The per-layer ladder: each layer of the simulation pipeline run alone,
// through its public functions, over the six applications' executions
// for the seed — generate, encode, decode, file-cache filter, process
// predictors and the whole per-policy simulation. Every step runs
// ladderReps times and reports its median.

const ladderReps = 3

// rateOf is events per second.
func rateOf(events int, secs float64) float64 { return float64(events) / secs }

// perKilo is a count per thousand events.
func perKilo(n uint64, events int) float64 { return float64(n) / (float64(events) / 1000) }

func ladder(r *run) error {
	cfg := r.cfg
	rec := r.rec
	lad := rec.begin("ladder", 0)
	defer rec.end(lad)
	reps := ladderReps
	if cfg.tiny {
		reps = 1
	}
	apps := workload.Apps()
	execs := func(app *workload.App) int {
		if cfg.tiny && app.Executions > 2 {
			return 2
		}
		return app.Executions
	}

	// Workload generation into one recycled buffer, the streaming seam
	// the fleet's per-machine sources use.
	var genRate, genAllocs []float64
	var buf []trace.Event
	for i := 0; i < reps; i++ {
		sp := rec.begin("workload.AppendEvents", lad)
		events := 0
		m0 := mallocs()
		t0 := time.Now()
		for _, app := range apps {
			for e := 0; e < execs(app); e++ {
				buf = app.AppendEvents(buf[:0], cfg.seed, e)
				events += len(buf)
			}
		}
		secs := time.Since(t0).Seconds()
		genAllocs = append(genAllocs, perKilo(mallocs()-m0, events))
		genRate = append(genRate, rateOf(events, secs))
		rec.end(sp)
	}
	r.set("workload.gen_events_per_s", median(genRate), "1/s")
	r.set("workload.gen_allocs_per_kevent", median(genAllocs), "count")

	traces := appTraces(cfg.seed, cfg.tiny)
	events := 0
	for _, t := range traces {
		events += len(t.Events)
	}

	// v2 encode of every execution as one indexed file, into memory.
	var encoded bytes.Buffer
	var encRate []float64
	for i := 0; i < reps; i++ {
		encoded.Reset()
		sp := rec.begin("trace.WriteColumnarIndexed", lad)
		t0 := time.Now()
		if err := trace.WriteColumnarIndexed(&encoded, traces...); err != nil {
			return err
		}
		encRate = append(encRate, rateOf(events, time.Since(t0).Seconds()))
		rec.end(sp)
	}
	r.set("trace.encode_v2_events_per_s", median(encRate), "1/s")

	// v2 decode: open the file with two decode workers and drain it.
	path := filepath.Join(cfg.work, fmt.Sprintf("ladder-%d.pct2", cfg.seed))
	if err := writeTraceFile(path, traces); err != nil {
		return err
	}
	defer os.Remove(path)
	var decRate, decAllocs []float64
	for i := 0; i < reps; i++ {
		sp := rec.begin("trace.decode_v2", lad)
		m0 := mallocs()
		t0 := time.Now()
		n, err := drainFile(path)
		secs := time.Since(t0).Seconds()
		allocs := mallocs() - m0
		rec.end(sp)
		if err != nil {
			return err
		}
		r.count(n == events)
		if n != events {
			r.notef("decode returned %d events, encoded %d", n, events)
		}
		decRate = append(decRate, rateOf(n, secs))
		decAllocs = append(decAllocs, perKilo(allocs, n))
	}
	r.set("trace.decode_v2_events_per_s", median(decRate), "1/s")
	r.set("trace.decode_v2_allocs_per_kevent", median(decAllocs), "count")

	// File-cache filter per execution; the post-cache streams feed the
	// predictor step.
	cache, err := fscache.New(sim.DefaultConfig().Cache)
	if err != nil {
		return err
	}
	post := make([][]trace.Event, len(traces))
	var filterRate, filterSecs []float64
	var st fscache.Stats
	ios, diskIOs := 0, 0
	for i := 0; i < reps; i++ {
		sp := rec.begin("fscache.FilterInto", lad)
		secs := 0.0
		st, ios, diskIOs = fscache.Stats{}, 0, 0
		for k, t := range traces {
			cache.Reset()
			t0 := time.Now()
			out, err := cache.FilterInto(post[k][:0], t.Events)
			secs += time.Since(t0).Seconds()
			if err != nil {
				return err
			}
			post[k] = out
			s := cache.Stats()
			st.Reads += s.Reads
			st.ReadHits += s.ReadHits
			ios += countIOs(t.Events)
			diskIOs += countIOs(out)
		}
		rec.end(sp)
		filterSecs = append(filterSecs, secs)
		filterRate = append(filterRate, rateOf(events, secs))
	}
	r.set("fscache.filter_events_per_s", median(filterRate), "1/s")
	r.set("fscache.read_hit_ratio", float64(st.ReadHits)/float64(st.Reads), "ratio")
	r.set("fscache.disk_per_io", float64(diskIOs)/float64(ios), "ratio")

	// Process predictors fed the post-cache stream, one factory per
	// application reused across its executions.
	s, err := experiments.NewSuite(cfg.seed, sim.DefaultConfig())
	if err != nil {
		return err
	}
	pcapPol, tpPol := s.PolicyPCAP(core.VariantBase), s.PolicyTP()
	var pcapNs, tpNs, pcapSecs, tpSecs, tableHit []float64
	for i := 0; i < reps; i++ {
		sp := rec.begin("core.PCAP.OnAccess", lad)
		secs, accesses, hit := feedPredictors(pcapPol, traces, post)
		rec.end(sp)
		pcapSecs = append(pcapSecs, secs)
		pcapNs = append(pcapNs, 1e9*secs/float64(accesses))
		tableHit = append(tableHit, hit)

		sp = rec.begin("predictor.Timeout.OnAccess", lad)
		secs, accesses, _ = feedPredictors(tpPol, traces, post)
		rec.end(sp)
		tpSecs = append(tpSecs, secs)
		tpNs = append(tpNs, 1e9*secs/float64(accesses))
	}
	r.set("core.pcap_ns_per_access", median(pcapNs), "ns")
	r.set("predictor.tp_ns_per_access", median(tpNs), "ns")
	r.set("core.table_hit_ratio", median(tableHit), "ratio")

	// The whole per-policy simulation on in-memory sources. Its self
	// time subtracts the file-cache and predictor time measured above on
	// the same input.
	runner, err := sim.NewRunner(sim.DefaultConfig())
	if err != nil {
		return err
	}
	byApp := groupByApp(traces)
	var simRate, simSelf, simAllocs []float64
	for i := 0; i < reps; i++ {
		sp := rec.begin("sim.RunSource", lad)
		secs := 0.0
		var allocs uint64
		for _, pol := range []sim.Policy{tpPol, pcapPol} {
			for _, group := range byApp {
				m0 := mallocs()
				t0 := time.Now()
				if _, err := runner.RunSource(trace.NewSliceSource(group...), pol); err != nil {
					return err
				}
				secs += time.Since(t0).Seconds()
				allocs += mallocs() - m0
			}
		}
		rec.end(sp)
		simEvents := 2 * events
		simRate = append(simRate, rateOf(simEvents, secs))
		self := secs - 2*median(filterSecs) - median(pcapSecs) - median(tpSecs)
		simSelf = append(simSelf, 1e9*self/float64(simEvents))
		simAllocs = append(simAllocs, perKilo(allocs, simEvents))
	}
	r.set("sim.run_source_events_per_s", median(simRate), "1/s")
	r.set("sim.self_ns_per_event", median(simSelf), "ns")
	r.set("sim.allocs_per_kevent", median(simAllocs), "count")
	return nil
}

// drainFile decodes a trace file with two workers and returns its event
// count.
func drainFile(path string) (int, error) {
	fs, err := trace.OpenTraceFileOpts(path, trace.OpenOptions{Workers: poolSize})
	if err != nil {
		return 0, err
	}
	defer fs.Close()
	n := 0
	var buf []trace.Event
	for {
		if _, _, ok := fs.NextExec(); !ok {
			break
		}
		buf = trace.Drain(fs, buf)
		n += len(buf)
	}
	return n, fs.Err()
}

func countIOs(events []trace.Event) int {
	n := 0
	for i := range events {
		if events[i].Kind == trace.KindIO {
			n++
		}
	}
	return n
}

// groupByApp splits traces into per-application runs, in order.
func groupByApp(traces []*trace.Trace) [][]*trace.Trace {
	var out [][]*trace.Trace
	for i, t := range traces {
		if i == 0 || t.App != traces[i-1].App {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], t)
	}
	return out
}

// feedPredictors drives a policy's per-process predictors with every
// post-cache disk access, one factory per application reused across its
// executions. It returns the time spent, the accesses fed and, for PCAP,
// the prediction-table hit ratio.
func feedPredictors(pol sim.Policy, traces []*trace.Trace, post [][]trace.Event) (secs float64, accesses int, tableHit float64) {
	var lookups, hits int64
	var f predictor.Factory
	procs := make(map[trace.PID]predictor.Process)
	for k, t := range traces {
		if k == 0 || t.App != traces[k-1].App {
			if pcap, ok := f.(*core.PCAP); ok {
				ts := pcap.Table().Stats()
				lookups, hits = lookups+ts.Lookups, hits+ts.Hits
			}
			f = pol.NewFactory()
		}
		clear(procs)
		t0 := time.Now()
		for _, e := range post[k] {
			if e.Kind != trace.KindIO {
				continue
			}
			p, ok := procs[e.Pid]
			if !ok {
				p = f.NewProcess(e.Pid)
				procs[e.Pid] = p
			}
			p.OnAccess(predictor.Access{Time: e.Time, PC: e.PC, FD: e.FD, Access: e.Access, Block: e.Block})
			accesses++
		}
		secs += time.Since(t0).Seconds()
	}
	if pcap, ok := f.(*core.PCAP); ok {
		ts := pcap.Table().Stats()
		lookups, hits = lookups+ts.Lookups, hits+ts.Hits
	}
	if lookups > 0 {
		tableHit = float64(hits) / float64(lookups)
	}
	return secs, accesses, tableHit
}
