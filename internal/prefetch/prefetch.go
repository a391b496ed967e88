// Package prefetch implements the paper's closing future-work direction:
// "PCAP opens a new direction for the development of predictor-based
// techniques suitable for many other aspects of the operating system,
// such as file buffer management and I/O prefetching."
//
// The same observation that powers PCAP — the program counter of an I/O
// identifies *which loop* in the application is executing — applies to
// readahead. A PC-blind sequential readahead sees one interleaved block
// stream and loses the pattern whenever two sequential streams (two
// processes, or two files) interleave; a PC-based prefetcher keeps one
// stream context per call site, so each loop's sequentiality survives the
// interleaving. (This is the direction the authors later developed into
// PC-based buffer-cache classification.)
//
// The package provides both prefetchers and an evaluation harness that
// replays workload traces through a block cache and scores demand misses,
// prefetch coverage and accuracy.
package prefetch

import (
	"container/list"
	"fmt"

	"pcapsim/internal/trace"
)

// Prefetcher decides which blocks to fetch ahead after each read access.
type Prefetcher interface {
	// Name returns a short identifier for result tables.
	Name() string
	// OnRead observes a demand read and returns the blocks to prefetch.
	OnRead(pc trace.PC, block int64) []int64
}

// None never prefetches — the demand-fetch baseline.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "none" }

// OnRead implements Prefetcher.
func (None) OnRead(trace.PC, int64) []int64 { return nil }

// sequentialState tracks one stream's recent behaviour.
type sequentialState struct {
	last  int64
	score int
}

// observe updates the stream with a block and reports the new score.
func (s *sequentialState) observe(block int64, max int) int {
	if block == s.last+1 {
		if s.score < max {
			s.score++
		}
	} else if s.score > 0 {
		s.score--
	}
	s.last = block
	return s.score
}

// GlobalReadahead is the PC-blind baseline: one stream context for the
// whole disk. Interleaved sequential streams destroy its score.
type GlobalReadahead struct {
	// Degree is how many blocks to fetch ahead once confident.
	Degree int
	// Threshold is the score at which prefetching starts.
	Threshold int
	state     sequentialState
}

// NewGlobalReadahead returns the baseline with the given degree and a
// confidence threshold of 2.
func NewGlobalReadahead(degree int) *GlobalReadahead {
	return &GlobalReadahead{Degree: degree, Threshold: 2}
}

// Name implements Prefetcher.
func (g *GlobalReadahead) Name() string { return "readahead" }

// OnRead implements Prefetcher.
func (g *GlobalReadahead) OnRead(_ trace.PC, block int64) []int64 {
	if g.state.observe(block, g.Threshold+2) >= g.Threshold {
		return ahead(block, g.Degree)
	}
	return nil
}

// PCReadahead keeps one stream context per program counter — the paper's
// insight applied to prefetching.
type PCReadahead struct {
	// Degree is how many blocks to fetch ahead once a site is confident.
	Degree int
	// Threshold is the per-site score at which prefetching starts.
	Threshold int
	// MaxSites bounds the per-PC state (LRU would be the production
	// answer; the site sets here are tiny, so a hard cap suffices).
	MaxSites int
	sites    map[trace.PC]*sequentialState
}

// NewPCReadahead returns a PC-keyed prefetcher with the given degree, a
// confidence threshold of 2, and room for 4096 sites.
func NewPCReadahead(degree int) *PCReadahead {
	return &PCReadahead{
		Degree:    degree,
		Threshold: 2,
		MaxSites:  4096,
		sites:     make(map[trace.PC]*sequentialState),
	}
}

// Name implements Prefetcher.
func (p *PCReadahead) Name() string { return "pc-readahead" }

// OnRead implements Prefetcher.
func (p *PCReadahead) OnRead(pc trace.PC, block int64) []int64 {
	st, ok := p.sites[pc]
	if !ok {
		if len(p.sites) >= p.MaxSites {
			return nil
		}
		st = &sequentialState{last: block - 1} // optimistic: first touch scores
		p.sites[pc] = st
	}
	if st.observe(block, p.Threshold+2) >= p.Threshold {
		return ahead(block, p.Degree)
	}
	return nil
}

func ahead(block int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = block + int64(i+1)
	}
	return out
}

// Result scores one prefetcher over one trace set.
type Result struct {
	Prefetcher string
	// DemandReads is the number of block reads issued by the workload.
	DemandReads int
	// DemandMisses is how many of them had to go to disk (cache and
	// prefetch misses).
	DemandMisses int
	// PrefetchHits is how many demand reads were served by a previously
	// prefetched block.
	PrefetchHits int
	// Prefetched is the number of blocks fetched ahead; Wasted counts
	// those evicted unused.
	Prefetched int
	Wasted     int
}

// MissRate returns demand misses over demand reads.
func (r Result) MissRate() float64 {
	if r.DemandReads == 0 {
		return 0
	}
	return float64(r.DemandMisses) / float64(r.DemandReads)
}

// Coverage returns the fraction of demand reads served by prefetched
// blocks.
func (r Result) Coverage() float64 {
	if r.DemandReads == 0 {
		return 0
	}
	return float64(r.PrefetchHits) / float64(r.DemandReads)
}

// Accuracy returns the fraction of prefetched blocks that were used.
func (r Result) Accuracy() float64 {
	if r.Prefetched == 0 {
		return 0
	}
	return float64(r.PrefetchHits) / float64(r.Prefetched)
}

// blockCache is a read-only LRU block cache that distinguishes demand
// from prefetched residency.
type blockCache struct {
	cap     int
	entries map[int64]*list.Element
	lru     *list.List // of cacheEntry
}

type cacheEntry struct {
	block      int64
	prefetched bool
}

func newBlockCache(capBlocks int) *blockCache {
	return &blockCache{
		cap:     capBlocks,
		entries: make(map[int64]*list.Element),
		lru:     list.New(),
	}
}

// touch looks a block up as a demand read. It reports whether the block
// was resident and whether it was resident *because of a prefetch*.
func (c *blockCache) touch(block int64) (hit, wasPrefetched bool) {
	el, ok := c.entries[block]
	if !ok {
		c.insert(block, false)
		return false, false
	}
	e := el.Value.(*cacheEntry)
	wasPrefetched = e.prefetched
	e.prefetched = false // now demand-owned
	c.lru.MoveToFront(el)
	return true, wasPrefetched
}

// insert adds a block, reporting a wasted prefetch if one was evicted
// unused.
func (c *blockCache) insert(block int64, prefetched bool) (wastedEviction bool) {
	if el, ok := c.entries[block]; ok {
		c.lru.MoveToFront(el)
		return false
	}
	c.entries[block] = c.lru.PushFront(&cacheEntry{block: block, prefetched: prefetched})
	if len(c.entries) <= c.cap {
		return false
	}
	oldest := c.lru.Back()
	victim := oldest.Value.(*cacheEntry)
	c.lru.Remove(oldest)
	delete(c.entries, victim.block)
	return victim.prefetched
}

// Evaluate replays the I/O events of the given traces through a block
// cache of capBlocks blocks with the prefetcher attached and returns the
// score. Only reads participate (readahead does not interact with the
// write-back path); multi-block reads are split per block, as in the file
// cache simulator.
func Evaluate(traces []*trace.Trace, capBlocks int, p Prefetcher) (Result, error) {
	return EvaluateSource(trace.NewSliceSource(traces...), capBlocks, p)
}

// EvaluateSource is Evaluate over a streaming trace source: executions are
// scored one at a time from the source's lent slice, so memory is one
// execution whatever the workload's length.
// The prefetcher's learned state persists across executions (as with
// Evaluate); the block cache starts cold for each one.
func EvaluateSource(src trace.Source, capBlocks int, p Prefetcher) (Result, error) {
	if capBlocks <= 0 {
		return Result{}, fmt.Errorf("prefetch: cache capacity must be positive, got %d", capBlocks)
	}
	res := Result{Prefetcher: p.Name()}
	for {
		if _, _, ok := src.NextExec(); !ok {
			break
		}
		cache := newBlockCache(capBlocks)
		for _, e := range src.ExecEvents() {
			if e.Kind != trace.KindIO || e.Access != trace.AccessRead && e.Access != trace.AccessOpen {
				continue
			}
			blocks := int(e.Size) / 4096
			if blocks < 1 {
				blocks = 1
			}
			for i := 0; i < blocks; i++ {
				block := e.Block + int64(i)
				res.DemandReads++
				hit, wasPrefetched := cache.touch(block)
				if !hit {
					res.DemandMisses++
				} else if wasPrefetched {
					res.PrefetchHits++
				}
				// Prefetches are background I/O: they do not count as
				// demand misses, but unused ones count as waste.
				for _, pb := range p.OnRead(e.PC, block) {
					if _, resident := cache.entries[pb]; resident {
						continue
					}
					res.Prefetched++
					if cache.insert(pb, true) {
						res.Wasted++
					}
				}
			}
		}
		// Prefetched blocks never touched before the execution ended were
		// fetched for nothing.
		for el := cache.lru.Front(); el != nil; el = el.Next() {
			if el.Value.(*cacheEntry).prefetched {
				res.Wasted++
			}
		}
	}
	if err := src.Err(); err != nil {
		return Result{}, fmt.Errorf("prefetch: reading trace source: %w", err)
	}
	return res, nil
}
