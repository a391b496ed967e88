package sim

import (
	"fmt"

	"pcapsim/internal/fscache"
	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
)

// The stepable per-machine state machine and the shared pass it steps
// through.
//
// A run splits into a policy-independent half and a per-policy half. The
// pass (one per run) pulls each execution from the source, borrows its
// events, filters them through the file cache and prepares the result —
// exactly once, into a pooled runState. A machine (one per policy) is a
// simulated user machine: a policy, its predictor state, its policyState
// working set, and a cursor into the pass's executions. After prepare an execution is
// read-only, so any number of machines can adopt the same one in turn.
//
// RunSources drives several machines over one pass in execution-major
// order: pull an execution, then let every machine adopt it and step
// through all of its accesses before the next pull. RunSource and
// RunSourceTraced are its one-policy case. The fleet engine
// (internal/fleet) instead owns one pass per Machine and multiplexes many
// of them over a shared virtual clock. Either way each machine performs
// the same operations in the same order as the original single-policy
// runSource/runExecution loop — every float accumulation into its
// AppResult happens at the same point in the same sequence — so results
// are byte-identical to it (enforced by the experiments suite golden and
// the differential tests).
//
// Step protocol of a machine that owns its pass:
//
//	for { if _, ok := m.nextTime(); !ok { break }; m.step() }
//	res, err := m.finish(); p.close()
//
// nextTime returns the session time of the machine's next disk access —
// the local virtual clock, where executions abut end-to-start (execution
// k+1's time 0 is the session instant at which execution k ended). It
// transparently pulls executions from the pass and adopts them as the
// current one drains; executions with no disk accesses are accounted
// (pure idle) and skipped in the same call. step processes exactly one
// access: the per-process predictor update, the global combiner decision
// for the period the access opens, its classification and its energy
// accounting. finish validates the source, resolves StateEntries and
// returns the result; the pass's close then hands the pooled runState
// back, exactly once.

// pass is the shared, policy-independent half of a run: a cursor over the
// source that prepares each execution once for every machine stepping
// through it. It owns a pooled runState from openPass until close.
type pass struct {
	r    *Runner
	src  trace.Source
	rs   *runState
	ex   *execution // the most recently prepared execution
	err  error      // first prepare error
	done bool       // source exhausted or failed; no further pulls
}

// openPass starts a pass over src with working sets for n policies.
func (r *Runner) openPass(p *pass, src trace.Source, n int) {
	*p = pass{r: r, src: src, rs: r.getState(n)}
}

// pull advances the source to its next execution, borrows its events,
// prepares them through the file cache and schedules their service into
// p.ex. The borrowed slice stays the source's: prepare only reads it, and
// nothing keeps it past the next pull. It returns false when the source
// is exhausted or an error occurred (see failure).
func (p *pass) pull() bool {
	if p.done {
		return false
	}
	app, exec, ok := p.src.NextExec()
	if !ok {
		p.done = true
		return false
	}
	rs := p.rs
	rs.view.App, rs.view.Execution, rs.view.Events = app, exec, p.src.ExecEvents()
	ex, err := rs.prepare(&rs.view, p.r.cfg.Cache)
	if err != nil {
		p.err, p.done = err, true
		return false
	}
	ex.serviceEnd = p.r.schedule(ex.serviceEnd[:0], ex.accesses)
	p.ex = ex
	return true
}

// failure reports why the pass stopped early: a prepare error, else the
// source's own error, else nil.
func (p *pass) failure() error {
	if p.err != nil {
		return p.err
	}
	if err := p.src.Err(); err != nil {
		return fmt.Errorf("sim: reading trace source: %w", err)
	}
	return nil
}

// close returns the pooled state exactly once. No machine of the pass may
// be stepped afterwards.
func (p *pass) close() {
	if p.rs != nil {
		p.r.putState(p.rs)
		p.rs = nil
		p.ex = nil
	}
}

// machine is the per-policy half of a run: the policy, its factory and
// learned state, its working set, and its cursor into the current
// execution.
type machine struct {
	r   *Runner
	p   *pass
	ps  *policyState
	pol Policy
	tr  *tracedRun
	res *AppResult
	// hook receives a record per evaluated global idle period. It is
	// captured from Runner.PeriodHook at construction (the documented
	// contract: install hooks before the first run) so the machine layer
	// never reads runner state mid-run.
	hook func(PeriodRecord)

	newFactory func() predictor.Factory
	f          predictor.Factory
	execIdx    int // number of executions adopted

	ex   *execution // current open execution, nil before the first adopt
	i    int        // next access index within ex
	base trace.Time // session time at which the current execution began

	err error // first round-trip error; stops the machine
}

// initMachine assembles a machine stepping through p with working set ps.
// The policy must already be validated.
func (r *Runner) initMachine(m *machine, p *pass, ps *policyState, pol Policy, tr *tracedRun) {
	newFactory := pol.NewFactory
	if newFactory == nil {
		// GlobalOracle without an explicit factory: use the local oracle
		// so per-process (local) statistics stay meaningful.
		breakeven := r.cfg.Disk.Breakeven
		newFactory = func() predictor.Factory { return predictor.NewOracle(breakeven) }
	}
	*m = machine{
		r:   r,
		p:   p,
		ps:  ps,
		pol: pol,
		tr:  tr,
		res: &AppResult{
			Policy:       pol.Name,
			StateEntries: -1,
		},
		hook:       r.PeriodHook,
		newFactory: newFactory,
	}
}

// nextTime returns the session time of the machine's next access, pulling
// and adopting executions from its pass as needed. ok=false means the
// machine has no further events — the source is exhausted or failed, or
// a round trip failed (see finish) — and step must not be called.
func (m *machine) nextTime() (trace.Time, bool) {
	for m.ex == nil || m.i >= len(m.ex.accesses) {
		if m.ex != nil {
			// The current execution is fully processed: advance the
			// session clock past it. Executions abut end-to-start.
			m.base += m.ex.end
			m.ex = nil
		}
		if m.err != nil || !m.p.pull() || !m.adopt(m.p.ex) {
			return 0, false
		}
	}
	return m.base + m.ex.accesses[m.i].Time, true
}

// adopt opens a prepared execution for stepping: it runs the
// per-execution factory policy (fresh, reused, or round-tripped) and the
// accounting prologue. It returns false, latching the error, when the
// round trip fails.
func (m *machine) adopt(ex *execution) bool {
	if m.execIdx == 0 {
		m.res.App = ex.app
	}
	switch {
	case m.f == nil || !m.pol.Reuse:
		m.f = m.newFactory()
	case m.execIdx > 0 && m.pol.RoundTrip != nil:
		nf, err := m.pol.RoundTrip(m.f)
		if err != nil {
			m.err = fmt.Errorf("sim: round-tripping %s after execution %d: %w", m.pol.Name, m.execIdx-1, err)
			return false
		}
		m.f = nf
	}
	m.execIdx++
	m.openExecution(ex)
	m.res.Executions++
	return true
}

// openExecution runs the per-execution accounting prologue: totals, the
// FIFO busy-time schedule, the leading unmanaged idle, and the reset of
// the per-pid predictor and decision working set.
func (m *machine) openExecution(ex *execution) {
	r, ps, res := m.r, m.ps, m.res
	d := &r.cfg.Disk
	res.TotalIOs += ex.totalIOs
	res.DiskAccesses += len(ex.accesses)
	res.SimTime += ex.end
	res.Cache.Reads += ex.cacheStats.Reads
	res.Cache.Writes += ex.cacheStats.Writes
	res.Cache.ReadHits += ex.cacheStats.ReadHits
	res.Cache.DiskReads += ex.cacheStats.DiskReads
	res.Cache.FlushWrites += ex.cacheStats.FlushWrites
	res.Cache.EvictionWrites += ex.cacheStats.EvictionWrites

	m.ex = ex
	m.i = 0

	if len(ex.accesses) == 0 {
		// A silent execution: the disk just idles. nextTime retires it
		// immediately (there is nothing to step).
		r.accountIdle(res, 0, ex.end)
		return
	}

	// Busy energy: every access is served at full power for its service
	// time (the schedule itself, ex.serviceEnd, is shared by the pass).
	for _, a := range ex.accesses {
		res.Energy.Busy += r.serviceTime(a).Seconds() * d.BusyPower
	}

	// Leading idle before the first access: the disk spins unmanaged.
	r.accountIdle(res, 0, ex.accesses[0].Time)

	if ps.preds == nil {
		ps.preds = make(map[trace.PID]predictor.Process)
		ps.dec = make(map[trace.PID]decisionState)
	}
	clear(ps.preds)
	clear(ps.dec)
	ps.decided = ps.decided[:0] // sorted pids with decisions, for determinism
}

// step processes the machine's next access: it feeds the access to its
// process's predictor, merges the standing decisions through the global
// combiner over the idle period the access opens, classifies the period
// and charges its energy. Callers must have observed ok=true from
// nextTime since the last step.
func (m *machine) step() {
	r, ps, res, ex, f, pol, d := m.r, m.ps, m.res, m.ex, m.f, m.pol, &m.r.cfg.Disk
	i := m.i
	m.i++
	a := ex.accesses[i]
	preds, dec := ps.preds, ps.dec
	serviceEnd := ex.serviceEnd

	pred, ok := preds[a.Pid]
	if !ok {
		pred = f.NewProcess(a.Pid)
		preds[a.Pid] = pred
	}
	nextLocal := ex.nextLocal[i]
	if fa, isFA := pred.(predictor.FutureAware); isFA {
		if nextLocal >= 0 {
			fa.SetNextGap(ex.accesses[nextLocal].Time-a.Time, true)
		} else {
			fa.SetNextGap(0, false)
		}
	}
	decision := pred.OnAccess(predictor.Access{
		Time:   a.Time,
		PC:     a.PC,
		FD:     a.FD,
		Access: a.Access,
		Block:  a.Block,
	})

	// Local (per-process) classification of the period that follows.
	// The kernel flush daemon is not one of the application's
	// processes, so it stays out of the per-process statistics (it
	// still feeds the global combiner below).
	if nextLocal >= 0 && a.Pid != fscache.KernelFlushPID {
		gap := ex.accesses[nextLocal].Time - a.Time
		classify(&res.Local, gap, decision, d.Breakeven)
	}

	// Update the standing decision for the global combiner.
	st := decisionState{ready: infTime, source: decision.Source}
	if decision.Shutdown {
		st.ready = a.Time + decision.Delay
	}
	if _, had := dec[a.Pid]; !had {
		// Insert a.Pid at its sorted position (equivalent to the
		// append-and-sort it replaces, without sort.Slice's allocation).
		decided := ps.decided
		j := len(decided)
		decided = append(decided, 0)
		for j > 0 && decided[j-1] > a.Pid {
			decided[j] = decided[j-1]
			j--
		}
		decided[j] = a.Pid
		ps.decided = decided
	}
	dec[a.Pid] = st

	// Global period from this access to the next one in the merged
	// stream (or the tail of the execution).
	T0 := a.Time
	T1 := ex.end
	terminal := i+1 >= len(ex.accesses)
	if !terminal {
		T1 = ex.accesses[i+1].Time
	}
	if T1 < T0 {
		T1 = T0
	}
	gap := T1 - T0
	long := gap >= d.Breakeven

	var s trace.Time
	var src predictor.Source
	var found bool
	var decider trace.PID
	if pol.GlobalOracle {
		if long {
			s, src, found = T0, predictor.SourcePrimary, true
			decider = a.Pid
		}
	} else {
		s, src, found, decider = r.combine(ex, dec, ps.decided, T0, T1)
	}
	if m.tr != nil {
		s, src, found = m.tr.decide(r, ex, a, serviceEnd[i], T0, T1, s, src, found, terminal, long)
	}
	if m.hook != nil && !terminal {
		m.hook(PeriodRecord{
			Execution: ex.index,
			Start:     T0, End: T1,
			LastPid: a.Pid, LastPC: a.PC,
			Shutdown: found, At: s, Source: src, DeciderPid: decider,
		})
	}

	if !terminal {
		globalDecision := predictor.Decision{Shutdown: found, Delay: s - T0, Source: src}
		classify(&res.Global, gap, globalDecision, d.Breakeven)
	}
	r.accountPeriod(res, serviceEnd[i], T1, s, found, long, src)
}

// finish closes the machine: it surfaces any latched, prepare or source
// error, rejects empty workloads, and resolves the policy's learned-state
// size. The pooled state belongs to the pass, which the driver closes.
func (m *machine) finish() (*AppResult, error) {
	if m.err != nil {
		return nil, m.err
	}
	if err := m.p.failure(); err != nil {
		return nil, err
	}
	if m.res.Executions == 0 {
		return nil, fmt.Errorf("sim: no traces")
	}
	if sf, ok := m.f.(SizedFactory); ok {
		m.res.StateEntries = sf.StateSize()
	}
	return m.res, nil
}

// Machine is the exported stepable simulation of one machine's session: a
// policy replayed over a stream of executions, advanced one disk access at
// a time. It is the building block of the fleet engine (internal/fleet),
// which orders many machines' next events on a shared virtual clock.
//
// A Machine is a single-goroutine value. Drive it with NextTime/Step until
// NextTime reports ok=false, then call Finish exactly once; Finish returns
// the aggregated result (or the first error) and recycles the machine's
// pooled scratch state, after which the Machine is dead. Abandoning a
// Machine without Finish leaks its runState from the runner's pool — it
// is garbage collected, but the recycling benefit is lost.
type Machine struct {
	m machine
	p pass
}

// NewMachine returns a stepable Machine simulating src under pol over a
// pass of its own. The Machine borrows a pooled runState from the Runner;
// Finish returns it.
func (r *Runner) NewMachine(src trace.Source, pol Policy) (*Machine, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	fm := new(Machine)
	r.openPass(&fm.p, src, 1)
	r.initMachine(&fm.m, &fm.p, &fm.p.rs.pols[0], pol, nil)
	return fm, nil
}

// NextTime returns the session-clock time of the machine's next disk
// access. The session clock starts at 0 and runs across executions, which
// abut end-to-start. ok=false means the session is over (or the source
// failed — Finish reports which).
func (fm *Machine) NextTime() (trace.Time, bool) { return fm.m.nextTime() }

// Step processes the machine's next access. It must only be called after
// NextTime reported ok=true.
func (fm *Machine) Step() { fm.m.step() }

// Finish completes the session and returns the aggregated result. It must
// be called exactly once.
func (fm *Machine) Finish() (*AppResult, error) {
	res, err := fm.m.finish()
	// The open execution lives inside the pooled runState: drop it so a
	// retained Machine cannot pin the state after the pool lets it go.
	fm.m.ex = nil
	fm.p.close()
	return res, err
}
