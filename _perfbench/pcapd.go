package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pcapsim/internal/experiments"
	"pcapsim/internal/fleet"
	"pcapsim/internal/server"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// The pcapd workload: a pcapd daemon in its own process on loopback
// with two job workers, driven by two closed-loop clients (each submits
// with ?wait=1 and sends its next job only after the reply). Each client
// walks a seeded schedule of mostly small eval jobs with a minority of
// replay jobs against traces uploaded in set-up and small fleet jobs.
// The run sends a fixed job count, so daemon memory is compared at
// equal work. Every job's output must equal the local rendering of the
// same spec.

const (
	// jobsPerSecond sizes the fixed job count: jobsPerSecond × --seconds
	// jobs in all.
	jobsPerSecond = 400
	tinyJobs      = 24
	// probeJobs is the schedule of the server probe on other workloads.
	probeJobs = 60
	clients   = 2
	// jobTimeout bounds one job round trip; an attempt that exceeds it
	// fails.
	jobTimeout = 60 * time.Second
)

var (
	jobPolicies = []string{"base", "tp", "pcap"}
	jobKinds    = []string{server.KindEval, server.KindReplay, server.KindFleet}
	// kindSeeds is how many workloads, drawn from the run's seed, each
	// kind's jobs spread over, so a run's cost does not hinge on one small
	// workload. Eval jobs stop at 8 because the daemon's pooled job
	// contexts keep 8 suites each, so every eval seed stays warm. Replay
	// jobs replay one of 8 uploaded traces and reuse the eval seeds, whose
	// suites they share. Fleet jobs keep no state; they are the slowest
	// jobs, so they set the latency tail, and their cost varies most
	// between seeds.
	kindSeeds = map[string]int{server.KindEval: 8, server.KindReplay: 8, server.KindFleet: 64}
)

// upload is a trace file the pcapd workload uploads in set-up.
type upload struct {
	local string // the file the benchmark wrote
	id    string // the daemon's reference ID
	// stored is the daemon's path for its copy, which replay outputs
	// name.
	stored string
}

// writeUploads writes the replay jobs' traces: the first two executions
// of one application each, cycling through the six, each at its own seed
// drawn from the run's seed.
func writeUploads(seed uint64, dir string) ([]upload, error) {
	rng := rand.New(rand.NewPCG(seed, 1))
	apps := workload.Apps()
	ups := make([]upload, kindSeeds[server.KindReplay])
	for i := range ups {
		app, s := apps[i%len(apps)], rng.Uint64N(1<<32)+1
		traces := make([]*trace.Trace, 2)
		for e := range traces {
			traces[e] = app.Trace(s, e)
		}
		ups[i].local = filepath.Join(dir, fmt.Sprintf("upload-%d-%d.pct2", seed, i))
		if err := writeTraceFile(ups[i].local, traces); err != nil {
			return nil, err
		}
	}
	return ups, nil
}

func removeUploads(ups []upload) {
	for _, u := range ups {
		_ = os.Remove(u.local) // generated input; a leftover only takes space
	}
}

// jobSpec is the wire form of a job; the benchmark speaks only the
// daemon's JSON protocol, like any client.
type jobSpec struct {
	Kind        string   `json:"kind"`
	Seed        uint64   `json:"seed,omitempty"`
	Policies    []string `json:"policies,omitempty"`
	App         string   `json:"app,omitempty"`
	Execs       int      `json:"execs,omitempty"`
	Trace       string   `json:"trace,omitempty"`
	Workers     int      `json:"workers,omitempty"`
	Machines    int      `json:"machines,omitempty"`
	DurationSec float64  `json:"duration_sec,omitempty"`
}

// sessions counts the machine sessions a job simulates (see report.go).
func (j jobSpec) sessions() int {
	if j.Kind == server.KindFleet {
		return j.Machines * len(j.Policies)
	}
	return len(j.Policies)
}

// jobView is the subset of a job reply the benchmark reads.
type jobView struct {
	State  string `json:"state"`
	Output string `json:"output"`
	Error  string `json:"error"`
}

// statsView is the subset of /stats the benchmark reads.
type statsView struct {
	Events int64 `json:"events"`
}

// shape is one distinct job of a schedule and its expected output.
type shape struct {
	spec jobSpec
	want string
}

// shapes lists every distinct job, kinds in jobKinds order, each kind at
// its kindSeeds workloads. Eval jobs take pcapload's default shape (nedit,
// 5 executions) at seeds drawn from the run's seed; replay jobs replay
// upload i in full at eval seed i; fleet jobs run 4 machines for 120
// virtual seconds on one worker at their own seeds.
func shapes(seed uint64, ups []upload) []shape {
	rng := rand.New(rand.NewPCG(seed, 0))
	evalSeeds := make([]uint64, kindSeeds[server.KindEval])
	for i := range evalSeeds {
		evalSeeds[i] = rng.Uint64N(1<<32) + 1
	}
	var out []shape
	for _, kind := range jobKinds {
		for i := 0; i < kindSeeds[kind]; i++ {
			spec := jobSpec{Kind: kind, Seed: evalSeeds[i%len(evalSeeds)], Policies: jobPolicies}
			switch kind {
			case server.KindEval:
				spec.App, spec.Execs = "nedit", 5
			case server.KindReplay:
				spec.Trace = ups[i].id
			case server.KindFleet:
				spec.Seed = rng.Uint64N(1<<32) + 1
				spec.Machines, spec.DurationSec, spec.Workers = 4, 120, 1
			}
			out = append(out, shape{spec: spec})
		}
	}
	return out
}

// firstShape is the index of kind's first shape.
func firstShape(kind string) int {
	n := 0
	for _, k := range jobKinds {
		if k == kind {
			break
		}
		n += kindSeeds[k]
	}
	return n
}

// schedule is one client's jobs as shape indexes: in every 20 jobs, 17
// eval, 2 replay and 1 fleet, in a seeded order, each at a seeded one of
// its kind's workload seeds.
func schedule(seed uint64, client, n int) []int {
	block := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		switch {
		case i < 17:
			block = append(block, server.KindEval)
		case i < 19:
			block = append(block, server.KindReplay)
		default:
			block = append(block, server.KindFleet)
		}
	}
	rng := rand.New(rand.NewPCG(seed, uint64(client)+1))
	out := make([]int, 0, n)
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			out = append(out, firstShape(kind)+rng.IntN(kindSeeds[kind]))
		}
	}
	return out[:n]
}

// session is a daemon under test and what the client knows about it.
type session struct {
	base   string
	client *http.Client
	// pid is the daemon's process ID, 0 for an in-process server.
	pid     int
	uploads []upload
	shapes  []shape
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   jobTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
	}
}

// submit runs one job synchronously and returns the reply and the HTTP
// status.
func (s *session) submit(spec jobSpec) (jobView, int, error) {
	var v jobView
	body, err := json.Marshal(spec)
	if err != nil {
		return v, 0, err
	}
	resp, err := s.client.Post(s.base+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return v, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return v, resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return v, resp.StatusCode, json.Unmarshal(data, &v)
}

func (s *session) events() (int64, error) {
	resp, err := s.client.Get(s.base + "/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st statsView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("decoding /stats: %w", err)
	}
	return st.Events, nil
}

func (s *session) upload(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	resp, err := s.client.Post(s.base+"/traces", "application/octet-stream", f)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID == "" {
		return "", fmt.Errorf("upload: status %d: %v", resp.StatusCode, err)
	}
	return out.ID, nil
}

// warmUp uploads the trace files and warms both workers from two
// concurrent clients: every eval and replay job (each eval seed builds a
// pooled suite) and one fleet job. Replay replies name the daemon's
// stored copy of each upload.
func (s *session) warmUp(seed uint64, ups []upload) error {
	s.uploads = ups
	for i := range s.uploads {
		id, err := s.upload(s.uploads[i].local)
		if err != nil {
			return err
		}
		s.uploads[i].id = id
	}
	s.shapes = shapes(seed, s.uploads)
	var warm []int
	for i := 0; i < firstShape(server.KindFleet); i++ {
		warm = append(warm, i)
	}
	warm = append(warm, firstShape(server.KindFleet))
	var mu sync.Mutex
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, i := range warm {
				spec := s.shapes[i].spec
				v, _, err := s.submit(spec)
				if err == nil && v.State != server.StateDone {
					err = fmt.Errorf("warm-up %s job %s: %s", spec.Kind, v.State, v.Error)
				}
				if err != nil {
					errs[c] = err
					return
				}
				if spec.Kind == server.KindReplay {
					header, _, _ := strings.Cut(v.Output, "\n")
					mu.Lock()
					s.uploads[i-firstShape(server.KindReplay)].stored = strings.TrimPrefix(header, "replay ")
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// references renders every shape locally through the same public calls
// the daemon makes, and checks its results against the physics.
func (s *session) references() error {
	suites := make(map[uint64]*experiments.Suite)
	suiteFor := func(seed uint64) (*experiments.Suite, error) {
		if st, ok := suites[seed]; ok {
			return st, nil
		}
		st, err := experiments.NewSuite(seed, sim.DefaultConfig())
		suites[seed] = st
		return st, err
	}
	mix, err := fleet.ParseMix("")
	if err != nil {
		return err
	}
	for i := range s.shapes {
		sh := &s.shapes[i]
		spec := sh.spec
		suite, err := suiteFor(spec.Seed)
		if err != nil {
			return err
		}
		var figures []outcome
		switch spec.Kind {
		case server.KindEval:
			app, _ := workload.ByName(spec.App)
			rows, err := suite.ReplayRows(trace.LimitExecs(suite.SourceFor(app), spec.Execs), spec.Policies)
			if err != nil {
				return err
			}
			sh.want = fmt.Sprintf("eval %s\n\n%s", spec.App, experiments.RenderReplayRows(rows))
			figures = rowOutcomes(rows)
		case server.KindReplay:
			up := s.uploads[i-firstShape(server.KindReplay)]
			fs, err := trace.OpenTraceFileOpts(up.local, trace.OpenOptions{})
			if err != nil {
				return err
			}
			rows, err := suite.ReplayRows(fs, spec.Policies)
			fs.Close()
			if err != nil {
				return err
			}
			sh.want = fmt.Sprintf("replay %s\n\n%s", up.stored, experiments.RenderReplayRows(rows))
			figures = rowOutcomes(rows)
		case server.KindFleet:
			results, err := experiments.FleetResults(fleet.Config{
				Machines: spec.Machines,
				Seed:     spec.Seed,
				Session:  trace.FromSeconds(spec.DurationSec),
				Mix:      mix,
				Workers:  spec.Workers,
			}, spec.Policies)
			if err != nil {
				return err
			}
			sh.want = experiments.RenderFleetComparison(spec.Policies, results)
			figures = fleetOutcomes(results)
		}
		if err := checkPhysics(figures); err != nil {
			return fmt.Errorf("%s reference (seed %d): %w", spec.Kind, spec.Seed, err)
		}
	}
	return nil
}

// sample is one attempted job.
type sample struct {
	shape   int
	ms      float64
	ok      bool
	refused bool
}

// batch runs every client's schedule to completion and returns the
// samples and the wall time. With a recorder, every job round trip is a
// span under its client's span.
func (s *session) batch(rec *recorder, seed uint64, perClient int) ([]sample, float64, string) {
	op := rec.begin("pcapd.op", 0)
	t0 := time.Now()
	out := make([][]sample, clients)
	notes := make([]string, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := rec.begin("pcapd.client", op)
			defer rec.end(cs)
			for _, i := range schedule(seed, c, perClient) {
				sh := &s.shapes[i]
				sp := rec.begin("server.job/"+sh.spec.Kind, cs)
				j0 := time.Now()
				v, status, err := s.submit(sh.spec)
				ms := 1000 * time.Since(j0).Seconds()
				rec.end(sp)
				ok := err == nil && v.State == server.StateDone && v.Output == sh.want
				if !ok && notes[c] == "" {
					notes[c] = fmt.Sprintf("%s job failed: status %d, state %q, err %v, error %q, output digest %s, want %s",
						sh.spec.Kind, status, v.State, err, v.Error, digest(v.Output), digest(sh.want))
				}
				out[c] = append(out[c], sample{shape: i, ms: ms, ok: ok, refused: status == http.StatusServiceUnavailable})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	rec.end(op)
	var all []sample
	for _, o := range out {
		all = append(all, o...)
	}
	return all, wall, strings.TrimSpace(strings.Join(notes, " "))
}

// daemon is a pcapd child process.
type daemon struct {
	cmd  *exec.Cmd
	tmp  string
	done chan error
}

// startDaemon boots pcapd on a loopback port with two workers and waits
// until it answers /healthz.
func startDaemon(bin, work string, n int) (*daemon, string, error) {
	tmp := filepath.Join(work, fmt.Sprintf("pcapd-%d", n))
	if err := os.RemoveAll(tmp); err != nil {
		return nil, "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, "", err
	}
	addrFile := filepath.Join(tmp, "addr")
	logFile, err := os.Create(filepath.Join(tmp, "pcapd.log"))
	if err != nil {
		return nil, "", err
	}
	defer logFile.Close()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addrfile", addrFile, "-workers", strconv.Itoa(poolSize))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", maxProcs), "TMPDIR="+tmp)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, tmp: tmp, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			base := "http://" + strings.TrimSpace(string(b))
			if resp, err := probe.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, base, nil
				}
			}
		}
		select {
		case err := <-d.done:
			_ = os.RemoveAll(tmp) // the daemon's temporary files only
			return nil, "", fmt.Errorf("pcapd exited during start-up: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	d.stop()
	return nil, "", errors.New("pcapd did not come up within 20 s")
}

// stop drains the daemon with SIGTERM, kills it if it lingers, waits for
// it to exit and removes its temporary directory.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited daemon is what we want
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill() // it ignored SIGTERM; the wait below reaps it
		<-d.done
	}
	_ = os.RemoveAll(d.tmp) // the daemon's temporary files only
}

func runPcapd(r *run) error {
	cfg := r.cfg
	total := jobsPerSecond * int(cfg.seconds+0.5)
	if cfg.tiny {
		total = tinyJobs
	}
	perClient := total / clients

	var d *daemon
	var sess *session
	var ups []upload
	defer func() {
		if d != nil {
			d.stop()
		}
		removeUploads(ups)
	}()
	boots := 0
	setupS, err := timeSetup(func() error {
		if d != nil {
			d.stop()
			d = nil
		}
		var err error
		if ups, err = writeUploads(cfg.seed, cfg.work); err != nil {
			return err
		}
		boots++
		var base string
		d, base, err = startDaemon(cfg.pcapd, cfg.work, boots)
		if err != nil {
			return err
		}
		sess = &session{base: base, client: newClient(), pid: d.cmd.Process.Pid}
		return sess.warmUp(cfg.seed, ups)
	})
	if err != nil {
		return err
	}
	// The expected outputs are verification, not daemon set-up, so they
	// are computed outside setup_s.
	if err := sess.references(); err != nil {
		return err
	}
	for i := range sess.shapes {
		sess.shapes[i].want = r.reference(sess.shapes[i].want)
	}
	rssWarm, err := procStatusKB(sess.pid, "VmRSS")
	if err != nil {
		return err
	}
	ev0, err := sess.events()
	if err != nil {
		return err
	}

	var samples []sample
	var wall float64
	if r.rec == nil {
		var note string
		samples, wall, note = sess.batch(nil, cfg.seed, perClient)
		if note != "" {
			r.notes = append(r.notes, note)
		}
	} else {
		// Half the schedule untraced, half traced: the overhead compares
		// their walls at equal job counts.
		plain, plainWall, note1 := sess.batch(nil, cfg.seed, perClient/2)
		traced, tracedWall, note2 := sess.batch(r.rec, cfg.seed, perClient/2)
		for _, n := range []string{note1, note2} {
			if n != "" {
				r.notes = append(r.notes, n)
			}
		}
		samples, wall = append(plain, traced...), plainWall+tracedWall
		r.set("bench.trace_overhead_pct", 100*(tracedWall/plainWall-1), "%")
		r.set("bench.uncovered_pct", 100*uncoveredShare(r.rec.snapshot(), "pcapd.client"), "%")
	}
	ev1, err := sess.events()
	if err != nil {
		return err
	}
	rssEnd, err := procStatusKB(sess.pid, "VmRSS")
	if err != nil {
		return err
	}
	peakKB, err := procStatusKB(sess.pid, "VmHWM")
	if err != nil {
		return err
	}

	var ms []float64
	failed, machines := 0, 0
	byKind := make(map[string][]float64)
	for _, sm := range samples {
		r.count(sm.ok)
		if !sm.ok {
			failed++
			continue
		}
		ms = append(ms, sm.ms)
		spec := sess.shapes[sm.shape].spec
		byKind[spec.Kind] = append(byKind[spec.Kind], sm.ms)
		machines += spec.sessions()
	}
	r.notef("pcapd: %d jobs, %d failed, in %.3f s; setup %.3f s over %d boots", len(samples), failed, wall, setupS, boots)
	for _, kind := range jobKinds {
		l := byKind[kind]
		r.notef("pcapd %s jobs: %d, latency p50 %.3f ms, p90 %.3f ms, max %.3f ms",
			kind, len(l), percentile(l, 50), percentile(l, 90), percentile(l, 100))
	}
	eventsPerS := float64(ev1-ev0) / wall
	if r.rec != nil {
		if err := setServerMetrics(r, sess, samples, eventsPerS, (rssEnd-rssWarm)/float64(len(samples))); err != nil {
			return err
		}
		if err := ladder(r); err != nil {
			return err
		}
		if err := probeSuite(r); err != nil {
			return err
		}
		return probeFleet(r)
	}
	// The jobs are too small for stable model shares, and their outputs
	// already equal local renders byte for byte, so the figures come from
	// the replay workload's input, all six applications' executions for
	// the seed, simulated locally.
	figures, err := modelFigures(cfg.seed, cfg.tiny)
	if err != nil {
		return err
	}
	r.set("wall_s", wall, "s")
	r.set("jobs_per_s", float64(len(samples))/wall, "1/s")
	r.set("events_per_s", eventsPerS, "1/s")
	r.set("machines_per_s", float64(machines)/wall, "1/s")
	setLatency(r, ms, failed)
	return setCommon(r, setupS, peakKB/1024, figures)
}

// modelFigures runs every application's executions for the seed through
// Base and PCAP and returns their outcomes.
func modelFigures(seed uint64, tiny bool) ([]outcome, error) {
	s, err := experiments.NewSuite(seed, sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rows, err := s.ReplayRows(trace.NewSliceSource(appTraces(seed, tiny)...), []string{"base", "pcap"})
	if err != nil {
		return nil, err
	}
	return rowOutcomes(rows), nil
}

// setServerMetrics reports the server.* layer metrics from a batch.
func setServerMetrics(r *run, sess *session, samples []sample, eventsPerS, growthKB float64) error {
	byKind := make(map[string][]float64)
	refused, failed := 0, 0
	for _, sm := range samples {
		switch {
		case sm.refused:
			refused++
		case !sm.ok:
			failed++
		default:
			kind := sess.shapes[sm.shape].spec.Kind
			byKind[kind] = append(byKind[kind], sm.ms)
		}
	}
	local, err := localEvalMs(sess.shapes[firstShape(server.KindEval)].spec)
	if err != nil {
		return err
	}
	evalP50 := median(byKind[server.KindEval])
	r.set("server.eval_rtt_p50_ms", evalP50, "ms")
	r.set("server.replay_rtt_p50_ms", median(byKind[server.KindReplay]), "ms")
	r.set("server.fleet_rtt_p50_ms", median(byKind[server.KindFleet]), "ms")
	r.set("server.overhead_ms", evalP50-local, "ms")
	r.set("server.stats_events_per_s", eventsPerS, "1/s")
	r.set("server.refused", float64(refused), "count")
	r.set("server.failed", float64(failed), "count")
	r.set("server.rss_growth_kb_per_job", growthKB, "KB")
	return nil
}

// localEvalMs is the median in-process time of an eval spec on a warm
// suite, as the daemon's pooled job contexts run it.
func localEvalMs(spec jobSpec) (float64, error) {
	suite, err := experiments.NewSuite(spec.Seed, sim.DefaultConfig())
	if err != nil {
		return 0, err
	}
	app, _ := workload.ByName(spec.App)
	var ms []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		rows, err := suite.ReplayRows(trace.LimitExecs(suite.SourceFor(app), spec.Execs), spec.Policies)
		if err != nil {
			return 0, err
		}
		_ = fmt.Sprintf("eval %s\n\n%s", spec.App, experiments.RenderReplayRows(rows))
		if i > 0 { // the first run generates the workload
			ms = append(ms, 1000*time.Since(t0).Seconds())
		}
	}
	return median(ms), nil
}

// probeServer measures the server layer on workloads that bypass it: an
// in-process server on a loopback listener, two workers, the same job
// shapes and a short schedule. Its retention per job is the growth of
// this process's live heap after a collection: the resident set of a
// process that also runs the benchmark is too noisy to show it.
func probeServer(r *run) error {
	cfg := r.cfg
	probe := r.rec.begin("probe.server", 0)
	defer r.rec.end(probe)
	srv, err := server.New(server.Config{Workers: poolSize})
	if err != nil {
		return err
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // the probe's jobs have all finished
	}()
	ups, err := writeUploads(cfg.seed, cfg.work)
	if err != nil {
		return err
	}
	defer removeUploads(ups)
	sess := &session{base: hs.URL, client: newClient()}
	if err := sess.warmUp(cfg.seed, ups); err != nil {
		return err
	}
	if err := sess.references(); err != nil {
		return err
	}
	for i := range sess.shapes {
		sess.shapes[i].want = r.reference(sess.shapes[i].want)
	}
	// A first pass fills the daemon's pooled job contexts, so the
	// measured pass's heap growth is retention rather than warm-up.
	warm, _, note := sess.batch(nil, cfg.seed, probeJobs/clients)
	if note != "" {
		r.notes = append(r.notes, note)
	}
	heap0 := liveHeapKB()
	ev0, err := sess.events()
	if err != nil {
		return err
	}
	samples, wall, note := sess.batch(r.rec, cfg.seed, probeJobs/clients)
	if note != "" {
		r.notes = append(r.notes, note)
	}
	ev1, err := sess.events()
	if err != nil {
		return err
	}
	for _, sm := range append(warm, samples...) {
		r.count(sm.ok)
	}
	return setServerMetrics(r, sess, samples, float64(ev1-ev0)/wall, (liveHeapKB()-heap0)/float64(len(samples)))
}

// liveHeapKB is the live heap after a full collection, in KB.
func liveHeapKB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1024
}
