// Package sim is the trace-driven multiprocess simulator: it replays
// application traces through the file cache, drives per-process shutdown
// predictors, combines their decisions with the global shutdown predictor
// of the paper's Figure 5, classifies every idle period, and integrates
// disk energy.
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"pcapsim/internal/disk"
	"pcapsim/internal/fscache"
	"pcapsim/internal/predictor"
	"pcapsim/internal/trace"
)

// infTime marks "no shutdown scheduled".
const infTime = trace.Time(math.MaxInt64)

// Config parameterizes the simulator.
type Config struct {
	// Disk is the drive power model.
	Disk disk.Params
	// Cache is the file cache configuration.
	Cache fscache.Config
	// ServiceBase is the fixed per-access disk service time.
	ServiceBase trace.Time
	// ServiceBandwidth is the transfer rate in bytes per second used for
	// the size-dependent part of the service time.
	ServiceBandwidth float64
	// LowPowerWaitWindow enables the paper's future-work extension: when
	// a primary prediction is pending, the disk drops into the drive's
	// intermediate low-power idle state (Disk.LowPowerIdlePower) for the
	// wait-window instead of idling at full power. It requires a drive
	// with a low-power idle state.
	LowPowerWaitWindow bool
}

// DefaultConfig returns the paper's setup: the Fujitsu MHF 2043AT drive,
// the 256 KB / 30 s file cache, and a 2 ms + 20 MB/s disk service model.
func DefaultConfig() Config {
	return Config{
		Disk:             disk.FujitsuMHF2043AT(),
		Cache:            fscache.DefaultConfig(),
		ServiceBase:      2 * trace.Millisecond,
		ServiceBandwidth: 20e6,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Disk.Validate(); err != nil {
		return err
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if c.ServiceBase < 0 {
		return fmt.Errorf("sim: service base must be non-negative, got %v", c.ServiceBase)
	}
	if c.ServiceBandwidth <= 0 {
		return fmt.Errorf("sim: service bandwidth must be positive, got %g", c.ServiceBandwidth)
	}
	if c.LowPowerWaitWindow && c.Disk.LowPowerIdlePower <= 0 {
		return fmt.Errorf("sim: LowPowerWaitWindow requires a drive with a low-power idle state")
	}
	return nil
}

// AppResult aggregates one policy's run over all executions of one
// application.
type AppResult struct {
	// App and Policy identify the run.
	App    string
	Policy string
	// Executions is the number of executions simulated.
	Executions int
	// TotalIOs is the pre-cache I/O event count (Table 1's "Total I/Os").
	TotalIOs int
	// DiskAccesses is the post-cache disk access count.
	DiskAccesses int
	// Local accumulates per-process idle-period outcomes (Figure 6).
	Local Counts
	// Global accumulates merged-stream outcomes under the global
	// shutdown predictor (Figure 7).
	Global Counts
	// Energy is the disk energy under this policy's global decisions
	// (Figure 8).
	Energy disk.EnergyBreakdown
	// Cycles is the number of shutdowns actually performed.
	Cycles int
	// Wakeups counts accesses that found the disk spun down and had to
	// wait for a spin-up; WaitTime is the total user-visible latency so
	// incurred (the paper's "irritate the user who has to wait for the
	// disk to spin up").
	Wakeups  int
	WaitTime trace.Time
	// SimTime is the total simulated time across executions.
	SimTime trace.Time
	// StateEntries is the predictor's learned-state size after the final
	// execution (Table 3), or -1 if the policy has no learned state.
	StateEntries int
	// Cache aggregates file cache activity.
	Cache fscache.Stats
}

// PeriodRecord describes one evaluated global idle period; see
// Runner.PeriodHook.
type PeriodRecord struct {
	// Execution is the execution index within the run.
	Execution int
	// Start and End delimit the period (arrival to arrival).
	Start, End trace.Time
	// LastPid / LastPC identify the access leading into the period.
	LastPid trace.PID
	LastPC  trace.PC
	// Shutdown reports whether a shutdown occurred, at time At, decided
	// by a process whose decision came from Source.
	Shutdown bool
	At       trace.Time
	Source   predictor.Source
	// DeciderPid is the process whose decision set the shutdown time.
	DeciderPid trace.PID
}

// Runner executes policies over application traces.
//
// A Runner is safe for concurrent RunApp/RunSource/RunSources calls: cfg is
// immutable after construction and all per-run state lives in the
// per-call execution and AppResult (the file cache is built inside
// prepare, and traces are read only — events are copied by value into the
// access stream). The parallel experiment engine
// (internal/experiments.RunMatrix) relies on this. Sources themselves are
// single-goroutine iterators: concurrent RunSource calls need distinct
// Source values (over shared read-only traces is fine).
// The one caveat is PeriodHook: it fires synchronously on the goroutine
// calling RunApp, so a hook installed on a shared Runner must itself be
// safe for concurrent use (set it before the first RunApp; the hook is a
// serial debugging aid and the experiment engine never installs one).
type Runner struct {
	cfg Config
	// PeriodHook, if non-nil, receives a record for every evaluated
	// global idle period — a debugging and testing aid.
	PeriodHook func(PeriodRecord)
	// statePool recycles per-pass scratch state (file cache arena, event
	// buffers, per-policy working sets) across runs, so repeated runs on
	// one Runner allocate only what a single run's high-water mark needs.
	statePool sync.Pool
}

// NewRunner returns a Runner, validating the configuration.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg}, nil
}

// MustNewRunner is NewRunner, panicking on configuration errors.
func MustNewRunner(cfg Config) *Runner {
	r, err := NewRunner(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

// serviceTime models the disk time to serve one access.
func (r *Runner) serviceTime(e trace.Event) trace.Time {
	transfer := trace.FromSeconds(float64(e.Size) / r.cfg.ServiceBandwidth)
	return r.cfg.ServiceBase + transfer
}

// schedule appends to dst the time the disk finishes serving each access
// under the busy-time model: accesses queue FIFO, and service i starts at
// max(arrival, previous completion). It depends only on the accesses, so
// a pass computes it once for every policy.
func (r *Runner) schedule(dst []trace.Time, accesses []trace.Event) []trace.Time {
	var prevEnd trace.Time
	for _, a := range accesses {
		start := a.Time
		if prevEnd > start {
			start = prevEnd
		}
		prevEnd = start + r.serviceTime(a)
		dst = append(dst, prevEnd)
	}
	return dst
}

// RunApp simulates every execution trace of one application under the
// given policy and returns the aggregated result. It is a thin wrapper
// over RunSource with the traces adapted to a Source.
func (r *Runner) RunApp(traces []*trace.Trace, pol Policy) (*AppResult, error) {
	return r.RunSource(trace.NewSliceSource(traces...), pol)
}

// RunSource simulates every execution yielded by src under the given
// policy and returns the aggregated result. It is the one-policy case of
// RunSources. Executions are consumed one at a time: peak memory is the
// one execution the source lends (trace.Source.ExecEvents), independent
// of how many executions the source yields. The source must yield at least one execution; all executions
// are expected to belong to one application (the result is labelled with
// the first one's name).
//
// RunSource over a source yielding the same executions as a []*trace.Trace
// produces a result identical to RunApp over that slice — the simulation
// per execution, including floating-point accumulation order, is shared
// code.
func (r *Runner) RunSource(src trace.Source, pol Policy) (*AppResult, error) {
	return r.runOne(src, pol, nil)
}

// RunSources simulates every execution yielded by src under each of the
// given policies in a single pass over the source, returning one result
// per policy, in order. Each execution is pulled, borrowed, filtered
// through the file cache and prepared once; every policy then steps
// through that same read-only execution before the next one is pulled.
// Each result is identical to a separate RunSource call over the same
// executions (DESIGN.md §18), so the source never needs a Reset. Policies
// are validated before the source is touched; on any error — a source or
// prepare failure, or one policy's round trip — no results are returned.
func (r *Runner) RunSources(src trace.Source, pols []Policy) ([]*AppResult, error) {
	return r.runSources(src, pols, nil)
}

// runOne is the one-policy case of runSources, shared by RunSource and
// RunSourceTraced.
func (r *Runner) runOne(src trace.Source, pol Policy, tr *tracedRun) (*AppResult, error) {
	res, err := r.runSources(src, []Policy{pol}, tr)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// runSources is the driver behind every non-fleet run: one pass over the
// source (machine.go) with one machine per policy, stepped in
// execution-major order. tr is nil for plain runs; a traced run has
// exactly one policy and threads tr into every step so decision records
// and counterfactual flips share the single simulation loop.
func (r *Runner) runSources(src trace.Source, pols []Policy, tr *tracedRun) ([]*AppResult, error) {
	if len(pols) == 0 {
		return nil, fmt.Errorf("sim: no policies")
	}
	for _, pol := range pols {
		if err := pol.Validate(); err != nil {
			return nil, err
		}
	}
	p := new(pass)
	r.openPass(p, src, len(pols))
	defer p.close()
	ms := make([]machine, len(pols))
	for k, pol := range pols {
		r.initMachine(&ms[k], p, &p.rs.pols[k], pol, tr)
	}
run:
	for p.pull() {
		for k := range ms {
			m := &ms[k]
			if !m.adopt(p.ex) {
				break run
			}
			for m.i < len(p.ex.accesses) {
				m.step()
			}
		}
	}
	out := make([]*AppResult, len(ms))
	for k := range ms {
		res, err := ms[k].finish()
		if err != nil {
			return nil, err
		}
		out[k] = res
	}
	return out, nil
}

// decisionState is a process's standing decision: the absolute time at
// which it is ready for the disk to shut down (infTime = blocks shutdown).
type decisionState struct {
	ready  trace.Time
	source predictor.Source
}

// combine implements the Global Shutdown Predictor: the disk shuts down at
// the earliest instant in [T0, T1) at which every live process that has
// performed I/O is ready. Processes exiting during the window stop
// constraining it from their exit on. The returned source belongs to the
// process that made the last (latest-ready) decision.
func (r *Runner) combine(ex *execution, dec map[trace.PID]decisionState, decided []trace.PID, T0, T1 trace.Time) (trace.Time, predictor.Source, bool, trace.PID) {
	// Exit events strictly inside the window split it into segments with
	// a fixed constraint set each.
	eidx := sort.Search(len(ex.exits), func(i int) bool { return ex.exits[i].Time > T0 })
	segStart := T0
	for {
		segEnd := T1
		if eidx < len(ex.exits) && ex.exits[eidx].Time < T1 {
			segEnd = ex.exits[eidx].Time
		}
		ready := trace.Time(math.MinInt64)
		src := predictor.SourceBackup
		var decider trace.PID
		blocked := false
		any := false
		for _, pid := range decided {
			pi := ex.procs[pid]
			if pi.hasExit && pi.exit <= segStart {
				continue
			}
			any = true
			st := dec[pid]
			if st.ready == infTime {
				blocked = true
				continue
			}
			if st.ready >= ready {
				ready = st.ready
				src = st.source
				decider = pid
			}
		}
		if !any {
			// Every process that ever accessed the disk has exited: shut
			// down as soon as the segment starts.
			return segStart, predictor.SourceBackup, true, 0
		}
		if !blocked && ready < segEnd {
			s := ready
			if s < segStart {
				s = segStart
			}
			return s, src, true, decider
		}
		if segEnd == T1 {
			return 0, predictor.SourceNone, false, 0
		}
		segStart = segEnd
		eidx++
	}
}

// classify scores one idle period of length gap under a decision, per the
// taxonomy in DESIGN.md.
func classify(c *Counts, gap trace.Time, d predictor.Decision, breakeven trace.Time) {
	long := gap >= breakeven
	if long {
		c.LongPeriods++
	} else {
		c.ShortPeriods++
	}
	if !d.Shutdown || d.Delay >= gap {
		// No shutdown happens (a timer or wait-window outlasting the
		// period is cancelled by the next access).
		if long {
			c.NotPredicted++
		}
		return
	}
	off := gap - d.Delay
	primary := d.Source != predictor.SourceBackup
	if off >= breakeven {
		if primary {
			c.HitPrimary++
		} else {
			c.HitBackup++
		}
	} else {
		if primary {
			c.MissPrimary++
		} else {
			c.MissBackup++
		}
	}
}

// accountIdle charges unmanaged spinning idle time for [from, to).
func (r *Runner) accountIdle(res *AppResult, from, to trace.Time) {
	if to <= from {
		return
	}
	gap := to - from
	j := gap.Seconds() * r.cfg.Disk.IdlePower
	if gap >= r.cfg.Disk.Breakeven {
		res.Energy.IdleLong += j
	} else {
		res.Energy.IdleShort += j
	}
}

// accountPeriod charges the non-busy energy of one global period: the disk
// idles from svcEnd until the shutdown point s (if found), then stands by
// until T1; the fixed power-cycle energy is charged per shutdown.
func (r *Runner) accountPeriod(res *AppResult, svcEnd, T1, s trace.Time, shutdown, long bool, src predictor.Source) {
	d := &r.cfg.Disk
	idleStart := svcEnd
	if idleStart > T1 {
		return // queued service spills past the next arrival: no idle at all
	}
	bucket := &res.Energy.IdleShort
	if long {
		bucket = &res.Energy.IdleLong
	}
	// With the multi-state extension, a pending primary prediction parks
	// the disk in the low-power idle state for its wait-window.
	preShutdownPower := d.IdlePower
	if r.cfg.LowPowerWaitWindow && src == predictor.SourcePrimary && d.LowPowerIdlePower > 0 {
		preShutdownPower = d.LowPowerIdlePower
	}
	if !shutdown || s >= T1 {
		*bucket += (T1 - idleStart).Seconds() * d.IdlePower
		return
	}
	if s < idleStart {
		s = idleStart
	}
	*bucket += (s-idleStart).Seconds()*preShutdownPower + (T1-s).Seconds()*d.StandbyPower
	res.Energy.PowerCycle += d.CycleEnergy()
	res.Cycles++
	// The access ending this period finds the disk off: it waits for the
	// spin-up, plus the tail of the shutdown transition if it arrived
	// mid-transition.
	res.Wakeups++
	wait := d.SpinUpTime
	if pending := s + d.ShutdownTime - T1; pending > 0 {
		wait += pending
	}
	res.WaitTime += wait
}
