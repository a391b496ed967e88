package sim

import (
	"fmt"

	"pcapsim/internal/fscache"
	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
)

// procInfo tracks one process's lifetime and access stream within an
// execution.
type procInfo struct {
	pid   trace.PID
	start trace.Time
	// exit is the exit time; hasExit reports whether the process exited
	// within the trace.
	exit    trace.Time
	hasExit bool
	// accesses are indices into execution.accesses belonging to this pid.
	accesses []int
}

// liveAt reports whether the process exists (has started, has not exited)
// at time t.
func (p *procInfo) liveAt(t trace.Time) bool {
	return p.start <= t && (!p.hasExit || p.exit > t)
}

// recycle clears the procInfo for reuse, keeping its accesses capacity.
func (p *procInfo) recycle() {
	*p = procInfo{accesses: p.accesses[:0]}
}

// execution is one application execution prepared for simulation: the
// trace filtered through the file cache into disk accesses, partitioned by
// process.
type execution struct {
	app string
	// index is the execution's position within the workload.
	index int
	// accesses is the merged disk-access stream in time order.
	accesses []trace.Event
	// nextLocal[i] is the index (into accesses) of the next access by the
	// same process after accesses[i], or -1.
	nextLocal []int
	// serviceEnd[i] is the time the disk finishes serving accesses[i]
	// (Runner.schedule).
	serviceEnd []trace.Time
	// procs maps pid to lifetime and access info.
	procs map[trace.PID]*procInfo
	// exits lists processes' exit events sorted by time.
	exits []trace.Event
	// totalIOs is the pre-cache I/O event count.
	totalIOs int
	// cacheStats is the file cache activity for this execution.
	cacheStats fscache.Stats
	// end is the time of the last trace event.
	end trace.Time
}

// runState is the pooled scratch space of one pass over a source: the
// file cache (arena reset, not reallocated, between executions), the
// filtered-event buffer, the prepared execution with all of its slices
// and maps and the procInfo free list — all of which exist once per pass,
// however many policies step through it — plus one policyState per
// policy. The source's events themselves are only borrowed (view).
//
// Ownership discipline: a runState is owned by exactly one pass at a time
// (Runner keeps a sync.Pool of them), and everything inside it is
// overwritten at the next execution's prepare — so nothing reachable from
// a runState may be retained across executions, matching the
// trace.Source lending contract for event slices.
type runState struct {
	view     trace.Trace // reused Trace header over the borrowed events
	cache    *fscache.Cache
	filtered []trace.Event
	ex       execution
	procFree []*procInfo // recycled procInfo values

	// pols holds one working set per policy of the pass, in policy order.
	pols []policyState
}

// policyState is one policy's per-execution working set: its per-pid
// predictors and standing decisions, and the decided pids in sorted
// order. It is the only simulation state a policy does not share with
// the other policies of its pass.
type policyState struct {
	preds   map[trace.PID]predictor.Process
	dec     map[trace.PID]decisionState
	decided []trace.PID
}

// getState fetches a runState with working sets for n policies. The
// caller takes ownership and must pair it with putState.
//
//pcaplint:owner-transfer
func (r *Runner) getState(n int) *runState {
	rs, ok := r.statePool.Get().(*runState)
	if !ok {
		rs = new(runState)
	}
	for len(rs.pols) < n {
		rs.pols = append(rs.pols, policyState{})
	}
	return rs
}

// putState returns a runState to the pool for the next pass.
func (r *Runner) putState(rs *runState) {
	// Drop predictor references so pooled states do not pin a finished
	// run's learned state, and let go of the last borrowed event slice (it
	// belongs to the source); the containers themselves are kept.
	for i := range rs.pols {
		clear(rs.pols[i].preds)
		clear(rs.pols[i].dec)
	}
	rs.view.Events = nil
	r.statePool.Put(rs)
}

// prepare filters one execution trace through the run's file cache and
// indexes the resulting disk accesses for the runner, reusing every buffer
// from the previous execution.
func (rs *runState) prepare(tr *trace.Trace, cacheCfg fscache.Config) (*execution, error) {
	if rs.cache == nil {
		cache, err := fscache.New(cacheCfg)
		if err != nil {
			return nil, err
		}
		rs.cache = cache
	} else {
		rs.cache.Reset()
	}
	filtered, err := rs.cache.FilterInto(rs.filtered[:0], tr.Events)
	if err != nil {
		return nil, fmt.Errorf("sim: filtering %s/%d: %w", tr.App, tr.Execution, err)
	}
	rs.filtered = filtered

	ex := &rs.ex
	// Free-list order only decides which recycled procInfo serves which
	// pid next execution; every field is reset on reuse, so results are
	// unaffected.
	//pcaplint:ignore detmap free-list order is invisible: procInfos are fully reset on reuse
	for _, p := range ex.procs {
		p.recycle()
		rs.procFree = append(rs.procFree, p)
	}
	if ex.procs == nil {
		ex.procs = make(map[trace.PID]*procInfo)
	} else {
		clear(ex.procs)
	}
	ex.app = tr.App
	ex.index = tr.Execution
	ex.accesses = ex.accesses[:0]
	ex.exits = ex.exits[:0]
	ex.totalIOs = 0
	ex.cacheStats = rs.cache.Stats()
	ex.end = tr.Duration()

	for _, e := range tr.Events {
		if e.IsIO() {
			ex.totalIOs++
		}
	}
	proc := func(pid trace.PID) *procInfo {
		p, ok := ex.procs[pid]
		if !ok {
			// First sighting without a fork: a root process, alive from
			// the start of the execution.
			p = rs.newProc(pid)
			ex.procs[pid] = p
		}
		return p
	}
	for _, e := range filtered {
		switch e.Kind {
		case trace.KindFork:
			proc(e.Pid)
			child, ok := ex.procs[e.Child]
			if !ok {
				child = rs.newProc(e.Child)
				ex.procs[e.Child] = child
			}
			child.start = e.Time
		case trace.KindExit:
			p := proc(e.Pid)
			p.exit = e.Time
			p.hasExit = true
			ex.exits = append(ex.exits, e)
		case trace.KindIO:
			p := proc(e.Pid)
			idx := len(ex.accesses)
			ex.accesses = append(ex.accesses, e)
			p.accesses = append(p.accesses, idx)
		}
	}
	// Index each access's successor within its own process.
	ex.nextLocal = ex.nextLocal[:0]
	for range ex.accesses {
		ex.nextLocal = append(ex.nextLocal, -1)
	}
	// Each access index belongs to exactly one pid, so the writes below
	// hit disjoint nextLocal slots regardless of iteration order.
	//pcaplint:ignore detmap per-pid access indices are disjoint, so write order cannot matter
	for _, p := range ex.procs {
		for j := 0; j+1 < len(p.accesses); j++ {
			ex.nextLocal[p.accesses[j]] = p.accesses[j+1]
		}
	}
	return ex, nil
}

// prepare prepares one execution with fresh, unpooled state — the seam
// for cold paths (the machine-engine cross-validator) that work outside a
// RunSource loop.
func prepare(tr *trace.Trace, cacheCfg fscache.Config) (*execution, error) {
	return (&runState{}).prepare(tr, cacheCfg)
}

// newProc takes a procInfo from the free list (or allocates one) and
// labels it with pid.
func (rs *runState) newProc(pid trace.PID) *procInfo {
	if n := len(rs.procFree); n > 0 {
		p := rs.procFree[n-1]
		rs.procFree = rs.procFree[:n-1]
		p.pid = pid
		return p
	}
	return &procInfo{pid: pid}
}
