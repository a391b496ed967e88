package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// End-to-end metrics. Every workload reports every metric; each
// workload's unit of work is its operation:
//
//	suite   one cold full evaluation
//	replay  one replay of the trace file through four policies
//	fleet   one three-policy fleet comparison
//	pcapd   one job (latency); the fixed job schedule (wall_s)
//
// events_per_s counts pre-cache I/O events times policies, and
// machines_per_s counts simulated machine sessions: a fleet machine
// under one policy, or one application's execution sequence under one
// policy (a suite cell, a replay policy run, an eval job policy run).

// opReport is what an operation-based workload measured.
type opReport struct {
	walls    []float64 // per-operation wall seconds
	setupS   float64
	peakMB   float64
	events   float64 // pre-cache I/O events × policies per operation
	machines float64 // simulated machine sessions per operation
	figures  []outcome
}

// reportOps sets every end-to-end metric from per-operation wall times.
// Rates use the median operation, so one slow operation does not move
// them.
func reportOps(r *run, rep opReport) error {
	wall := median(rep.walls)
	r.notef("operation walls (s): %s", fmtSecs(rep.walls))
	lat := make([]float64, len(rep.walls))
	for i, w := range rep.walls {
		lat[i] = 1000 * w
	}
	r.set("wall_s", wall, "s")
	r.set("events_per_s", rep.events/wall, "1/s")
	r.set("machines_per_s", rep.machines/wall, "1/s")
	r.set("jobs_per_s", 1/wall, "1/s")
	setLatency(r, lat, 0)
	return setCommon(r, rep.setupS, rep.peakMB, rep.figures)
}

// setLatency reports the median and 99th-percentile latency of the
// samples (ms); failed counts attempts that did not complete, which count
// as beyond every percentile. It notes the sample counts behind each
// percentile.
func setLatency(r *run, ms []float64, failed int) {
	all := append([]float64(nil), ms...)
	for i := 0; i < failed; i++ {
		all = append(all, math.Inf(1))
	}
	p50, p99 := percentile(all, 50), percentile(all, 99)
	r.set("latency_p50_ms", finite(p50), "ms")
	r.set("latency_p99_ms", finite(p99), "ms")
	r.notef("latency samples %d (%d failed): p50 %.3f ms with %d beyond, p99 %.3f ms with %d beyond",
		len(all), failed, p50, beyond(all, p50), p99, beyond(all, p99))
}

// finite maps a percentile that landed on a failed attempt to the job
// timeout, the latency limit every failure is counted beyond, so the
// result stays valid JSON.
func finite(p float64) float64 {
	if math.IsInf(p, 1) {
		return 1000 * jobTimeout.Seconds()
	}
	return p
}

// beyond counts samples strictly greater than v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// percentile is the nearest-rank percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// setCommon sets the metrics every workload reports the same way.
func setCommon(r *run, setupS, peakMB float64, figures []outcome) error {
	savings, miss, err := pcapFigures(figures)
	if err != nil {
		return err
	}
	r.set("setup_s", setupS, "s")
	r.set("peak_rss_mb", peakMB, "MB")
	r.set("pcap_savings_pct", savings, "%")
	r.set("pcap_miss_pct", miss, "%")
	return nil
}

// fmtSecs formats wall times for the notes.
func fmtSecs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
