package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"pcapsim/internal/experiments"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// The replay workload: all six applications' executions for the seed,
// written in set-up as one indexed v2 file, replayed through
// base,tp,pcap,ideal by Suite.ReplayFileOpts with two decode workers.
// No trace generation and no matrix run happen inside the timed part.

var replayPolicies = []string{"base", "tp", "pcap", "ideal"}

// appTraces generates every application's executions for the seed (the
// first two per application at the tiny size).
func appTraces(seed uint64, tiny bool) []*trace.Trace {
	var out []*trace.Trace
	for _, app := range workload.Apps() {
		n := app.Executions
		if tiny && n > 2 {
			n = 2
		}
		for i := 0; i < n; i++ {
			out = append(out, app.Trace(seed, i))
		}
	}
	return out
}

// writeTraceFile encodes traces as one indexed v2 file at path.
func writeTraceFile(path string, traces []*trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := trace.WriteColumnarIndexed(w, traces...); err != nil {
		f.Close()
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayRows replays the file once through the policies and returns the
// rows with the output ReplayFileOpts renders for them.
func replayRows(s *experiments.Suite, path string, policies []string) ([]experiments.ReplayRow, string, error) {
	fs, err := trace.OpenTraceFileOpts(path, trace.OpenOptions{Workers: poolSize})
	if err != nil {
		return nil, "", err
	}
	defer fs.Close()
	rows, err := s.ReplayRows(fs, policies)
	if err != nil {
		return nil, "", err
	}
	return rows, fmt.Sprintf("replay %s\n\n%s", path, experiments.RenderReplayRows(rows)), nil
}

func runReplay(r *run) error {
	cfg := r.cfg
	path := filepath.Join(cfg.work, fmt.Sprintf("replay-%d.pct2", cfg.seed))
	setupS, err := timeSetup(func() error {
		return writeTraceFile(path, appTraces(cfg.seed, cfg.tiny))
	})
	if err != nil {
		return err
	}
	defer os.Remove(path)
	s, err := experiments.NewSuite(cfg.seed, sim.DefaultConfig())
	if err != nil {
		return err
	}
	// The reference: the same file replayed through the same public
	// calls ReplayFileOpts composes, with its results checked against
	// the physics. Every operation's output must equal it byte for byte.
	rows, want, err := replayRows(s, path, replayPolicies)
	if err != nil {
		return err
	}
	want = r.reference(want)
	ref := rowOutcomes(rows)
	if err := checkPhysics(ref); err != nil {
		return fmt.Errorf("reference replay: %w", err)
	}
	r.notef("replay file %s: %d executions, %d I/Os, digest %s",
		path, rows[0].Result.Executions, rows[0].Result.TotalIOs, digest(stripFirstLine(want)))

	check := func(out string) bool {
		err := checkReplayTable(out)
		if err == nil && out != want {
			err = fmt.Errorf("output digest %s, want %s", digest(out), digest(want))
		}
		if err != nil {
			r.notef("replay check failed: %v", err)
		}
		return err == nil
	}
	op := func() error {
		out, err := s.ReplayFileOpts(path, replayPolicies, experiments.ReplayOptions{Workers: poolSize})
		if err != nil {
			return err
		}
		r.count(check(out))
		return nil
	}
	if r.rec != nil {
		return replayLayers(r, s, path, op, check)
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
		events:   float64(rows[0].Result.TotalIOs * len(replayPolicies)),
		machines: float64(len(replayPolicies)),
		figures:  ref,
	})
}

// stripFirstLine drops the "replay <path>" header, whose path differs
// between checkouts, for digests that identify the replayed content.
func stripFirstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[i+1:]
		}
	}
	return s
}

// replayTraced is one operation with spans around each public call:
// opening the file, each policy's run (bounded by ReplayRowsObserved's
// per-policy hook) and rendering.
func replayTraced(rec *recorder, s *experiments.Suite, path string) (string, []outcome, error) {
	op := rec.begin("replay.op", 0)
	defer rec.end(op)
	sp := rec.begin("trace.OpenTraceFileOpts", op)
	fs, err := trace.OpenTraceFileOpts(path, trace.OpenOptions{Workers: poolSize})
	rec.end(sp)
	if err != nil {
		return "", nil, err
	}
	defer fs.Close()
	pol := rec.begin("sim.RunSource/"+replayPolicies[0], op)
	i := 0
	rows, err := s.ReplayRowsObserved(fs, replayPolicies, func(experiments.ReplayRow) {
		rec.end(pol)
		if i++; i < len(replayPolicies) {
			pol = rec.begin("sim.RunSource/"+replayPolicies[i], op)
		}
	})
	if err != nil {
		return "", nil, err
	}
	sp = rec.begin("experiments.RenderReplayRows", op)
	out := fmt.Sprintf("replay %s\n\n%s", path, experiments.RenderReplayRows(rows))
	rec.end(sp)
	return out, rowOutcomes(rows), nil
}

// replayLayers is the traced replay run: untraced and traced operations
// alternate, then the ladder and the probes of the layers replay
// bypasses run.
func replayLayers(r *run, s *experiments.Suite, path string, op func() error, check func(string) bool) error {
	err := alternate(r, 3, "replay.op", op, func() error {
		out, res, err := replayTraced(r.rec, s, path)
		if err != nil {
			return err
		}
		ok := check(out)
		if err := checkPhysics(res); err != nil {
			r.notef("replay physics: %v", err)
			ok = false
		}
		r.count(ok)
		return nil
	})
	if err != nil {
		return err
	}
	if err := ladder(r); err != nil {
		return err
	}
	if err := probeSuite(r); err != nil {
		return err
	}
	if err := probeFleet(r); err != nil {
		return err
	}
	return probeServer(r)
}
