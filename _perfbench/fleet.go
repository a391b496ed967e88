package main

import (
	"fmt"
	"time"

	"pcapsim/internal/experiments"
	"pcapsim/internal/fleet"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
)

// The fleet workload: experiments.FleetResults for base,tp,pcap over 150
// machines on two workers. Every machine draws its own workload stream,
// so no post-cache work is shared across machines or policies. At 300
// machines an operation took 3-4 s but peaked at 1.2 GB resident, and its
// wall swung by up to a fifth between runs; 150 machines keep the same
// per-machine work at half the footprint and run steadier.

var fleetPolicies = []string{"base", "tp", "pcap"}

const (
	fleetMachines     = 150
	fleetTinyMachines = 6
	// probeMachines sizes the fleet probe of the other workloads' traced
	// runs.
	probeMachines = 20
)

// machineSums folds the per-machine results one policy run observed.
type machineSums struct {
	machines int
	ios      int64
	energy   float64
}

// fleetConfig is the workload's fleet: machines on the seed, the default
// 30-minute sessions, two workers.
func fleetConfig(seed uint64, machines int) fleet.Config {
	return fleet.Config{
		Machines: machines,
		Seed:     seed,
		Session:  trace.FromSeconds(1800),
		Workers:  poolSize,
	}
}

// checkFleet applies the physics checks to one comparison, and checks
// that each policy's aggregate equals the fold of its machines' results.
func checkFleet(results []*fleet.Result, sums []machineSums) error {
	if len(results) != len(sums) {
		return fmt.Errorf("%d results, %d observed policy runs", len(results), len(sums))
	}
	for i, res := range results {
		s := sums[i]
		if s.machines != res.Machines || s.ios != res.TotalIOs || !closeRel(s.energy, res.Energy.Total()) {
			return fmt.Errorf("%s: machines fold to %d machines, %d I/Os, %v J; aggregate says %d, %d, %v J",
				res.Policy, s.machines, s.ios, s.energy, res.Machines, res.TotalIOs, res.Energy.Total())
		}
	}
	return checkPhysics(fleetOutcomes(results))
}

// fleetOnce is one untraced operation: the comparison plus its
// rendering, with every machine's result folded for the checks.
func fleetOnce(cfg fleet.Config) (string, []*fleet.Result, []machineSums, error) {
	var sums []machineSums
	var cur machineSums
	cfg.Observe = func(_ int, res *sim.AppResult) {
		cur.machines++
		cur.ios += int64(res.TotalIOs)
		cur.energy += res.Energy.Total()
	}
	results, err := experiments.FleetResultsObserved(cfg, fleetPolicies, func(string, *fleet.Result) {
		sums = append(sums, cur)
		cur = machineSums{}
	})
	if err != nil {
		return "", nil, nil, err
	}
	return experiments.RenderFleetComparison(fleetPolicies, results), results, sums, nil
}

// fleetStats describes one traced comparison.
type fleetStats struct {
	newS, runS, renderS float64
	events              int64
	allocs              uint64
	machines            int
}

// fleetTraced is one operation decomposed into the public calls
// FleetResults makes — FleetPolicy, fleet.New and Fleet.Run per policy —
// plus the rendering, each under a span.
func fleetTraced(rec *recorder, parent int, cfg fleet.Config) (string, []*fleet.Result, []machineSums, fleetStats, error) {
	var st fleetStats
	op := rec.begin("fleet.op", parent)
	defer rec.end(op)
	var sums []machineSums
	var results []*fleet.Result
	for _, name := range fleetPolicies {
		sp := rec.begin("experiments.FleetPolicy", op)
		pf, err := experiments.FleetPolicy(name, cfg.Base)
		rec.end(sp)
		if err != nil {
			return "", nil, nil, st, err
		}
		var cur machineSums
		c := cfg
		c.Policy = pf
		c.Observe = func(_ int, res *sim.AppResult) {
			cur.machines++
			cur.ios += int64(res.TotalIOs)
			cur.energy += res.Energy.Total()
		}
		sp = rec.begin("fleet.New", op)
		t0 := time.Now()
		f, err := fleet.New(c)
		st.newS += time.Since(t0).Seconds()
		rec.end(sp)
		if err != nil {
			return "", nil, nil, st, err
		}
		sp = rec.begin("fleet.Run", op)
		m0 := mallocs()
		t0 = time.Now()
		res, err := f.Run()
		st.runS += time.Since(t0).Seconds()
		st.allocs += mallocs() - m0
		rec.end(sp)
		if err != nil {
			return "", nil, nil, st, err
		}
		st.events += res.TotalIOs
		st.machines += res.Machines
		results = append(results, res)
		sums = append(sums, cur)
	}
	sp := rec.begin("experiments.RenderFleetComparison", op)
	t0 := time.Now()
	out := experiments.RenderFleetComparison(fleetPolicies, results)
	st.renderS = time.Since(t0).Seconds()
	rec.end(sp)
	return out, results, sums, st, nil
}

// setFleetMetrics reports the fleet.* layer metrics as medians over
// traced comparisons.
func setFleetMetrics(r *run, stats []fleetStats) {
	var newS, runS, renderS, nsPerEvent, allocs []float64
	for _, st := range stats {
		newS = append(newS, st.newS)
		runS = append(runS, st.runS)
		renderS = append(renderS, st.renderS)
		nsPerEvent = append(nsPerEvent, 1e9*st.runS/float64(st.events))
		allocs = append(allocs, float64(st.allocs)/float64(st.machines))
	}
	r.set("fleet.new_s", median(newS), "s")
	r.set("fleet.run_s", median(runS), "s")
	r.set("fleet.render_s", median(renderS), "s")
	r.set("fleet.ns_per_event", median(nsPerEvent), "ns")
	r.set("fleet.allocs_per_machine", median(allocs), "count")
}

func runFleet(r *run) error {
	cfg := r.cfg
	machines := fleetMachines
	if cfg.tiny {
		machines = fleetTinyMachines
	}
	fc := fleetConfig(cfg.seed, machines)
	setupS, err := timeSetup(func() error {
		// A warm-up comparison on a tenth of the fleet: policy factories,
		// generators and the heap are warm before timing.
		_, _, _, err := fleetOnce(fleetConfig(cfg.seed, max(machines/10, 1)))
		return err
	})
	if err != nil {
		return err
	}

	var first string
	var last []*fleet.Result
	check := func(out string, results []*fleet.Result, sums []machineSums) bool {
		if first == "" {
			first = r.reference(out)
			r.notef("fleet digest %s (%d machines)", digest(out), machines)
		}
		err := checkFleet(results, sums)
		if err == nil && out != first {
			err = fmt.Errorf("output digest %s differs from the first repetition's %s", digest(out), digest(first))
		}
		if err != nil {
			r.notef("fleet check failed: %v", err)
		}
		last = results
		return err == nil
	}
	op := func() error {
		out, results, sums, err := fleetOnce(fc)
		if err != nil {
			return err
		}
		r.count(check(out, results, sums))
		return nil
	}

	if r.rec != nil {
		var stats []fleetStats
		err := alternate(r, 2, "fleet.op", op, func() error {
			out, results, sums, st, err := fleetTraced(r.rec, 0, fc)
			if err != nil {
				return err
			}
			r.count(check(out, results, sums))
			stats = append(stats, st)
			return nil
		})
		if err != nil {
			return err
		}
		setFleetMetrics(r, stats)
		if err := ladder(r); err != nil {
			return err
		}
		if err := probeSuite(r); err != nil {
			return err
		}
		return probeServer(r)
	}

	rss := startRSS()
	walls, err := timeOps(cfg.seconds, 3, op)
	peak := rss.stopMB()
	if err != nil {
		return err
	}
	var events int64
	for _, res := range last {
		events += res.TotalIOs
	}
	return reportOps(r, opReport{
		walls:    walls,
		setupS:   setupS,
		peakMB:   peak,
		events:   float64(events),
		machines: float64(machines * len(fleetPolicies)),
		figures:  fleetOutcomes(last),
	})
}

// probeFleet measures the fleet layer on workloads that bypass it: two
// traced comparisons of a small fleet.
func probeFleet(r *run) error {
	probe := r.rec.begin("probe.fleet", 0)
	defer r.rec.end(probe)
	var stats []fleetStats
	for i := 0; i < 2; i++ {
		_, results, sums, st, err := fleetTraced(r.rec, probe, fleetConfig(r.cfg.seed, probeMachines))
		if err != nil {
			return err
		}
		ok := checkFleet(results, sums) == nil
		r.count(ok)
		stats = append(stats, st)
	}
	setFleetMetrics(r, stats)
	return nil
}
