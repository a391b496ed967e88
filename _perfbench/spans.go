package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// run started; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps a run's spans in memory; write dumps them when the run
// ends. It is safe for concurrent use: cells of the evaluation matrix
// record spans from two pool goroutines.
type recorder struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(runID string) *recorder {
	return &recorder{run: runID, t0: time.Now()}
}

// begin opens a span under parent and returns its ID. On a nil recorder
// it does nothing and returns 0, so workload code traces unconditionally.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now, End: -1, Run: r.run})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the closed spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as one JSON object per line into dir/spans.
func (r *recorder) write(dir string) (string, error) {
	dir = filepath.Join(dir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.run+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// children indexes spans by parent ID.
func children(spans []span) map[int][]span {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	return kids
}

// covered returns how many nanoseconds of [s.Start, s.End] the union of
// kids covers. Children may overlap when they ran on different pool
// goroutines, so overlapping intervals count once.
func covered(s span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curHi = -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi >= 0 {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi >= 0 {
		total += curHi - curLo
	}
	return total
}

// selfTime is each span's duration minus the part its children cover.
func selfTime(spans []span) map[int]int64 {
	kids := children(spans)
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// uncoveredShare is the share of the named operation spans' total wall
// time that no child span covers.
func uncoveredShare(spans []span, opName string) float64 {
	kids := children(spans)
	var wall, self int64
	for _, s := range spans {
		if s.Name == opName {
			wall += s.dur()
			self += s.dur() - covered(s, kids[s.ID])
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(self) / float64(wall)
}

// selfTimeTable summarizes self time by span name, largest first.
func (r *recorder) selfTimeTable(limit int) []string {
	spans := r.snapshot()
	self := selfTime(spans)
	type agg struct {
		name  string
		count int
		self  int64
		total int64
	}
	byName := make(map[string]*agg)
	var names []string
	for _, s := range spans {
		a, ok := byName[s.Name]
		if !ok {
			a = &agg{name: s.Name}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.count++
		a.self += self[s.ID]
		a.total += s.dur()
	}
	sort.Slice(names, func(i, j int) bool {
		ai, aj := byName[names[i]], byName[names[j]]
		if ai.self != aj.self {
			return ai.self > aj.self
		}
		return ai.name < aj.name
	})
	out := []string{fmt.Sprintf("%-34s %6s %12s %12s", "span", "count", "self_ms", "total_ms")}
	for i, n := range names {
		if i == limit {
			break
		}
		a := byName[n]
		out = append(out, fmt.Sprintf("%-34s %6d %12.1f %12.1f", a.name, a.count, float64(a.self)/1e6, float64(a.total)/1e6))
	}
	return out
}
