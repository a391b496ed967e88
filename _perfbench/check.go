package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"pcapsim/internal/disk"
	"pcapsim/internal/experiments"
	"pcapsim/internal/fleet"
)

// Output checks. Every operation's output is checked; a check that fails
// marks the operation failed. The physics checks hold for any seed, so
// they apply where no reference output exists.

// digest is a short content hash of a rendered output.
func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// relTol is the relative tolerance for comparing energy sums that were
// folded in different orders.
const relTol = 1e-9

func closeRel(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// checkEnergy checks that an energy breakdown is finite, non-negative,
// and that its components sum to the total.
func checkEnergy(who string, e disk.EnergyBreakdown) error {
	parts := []float64{e.Busy, e.IdleShort, e.IdleLong, e.PowerCycle}
	sum := 0.0
	for _, p := range parts {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return fmt.Errorf("%s: energy component %v out of range", who, p)
		}
		sum += p
	}
	if !closeRel(sum, e.Total()) || e.Total() <= 0 {
		return fmt.Errorf("%s: energy components sum to %v, total is %v", who, sum, e.Total())
	}
	return nil
}

// outcome is the subset of a policy run's result the physics checks
// read; both per-app results and fleet aggregates reduce to it.
type outcome struct {
	policy       string
	executions   int64
	totalIOs     int64
	diskAccesses int64
	energy       disk.EnergyBreakdown
	hits, misses int64
}

func rowOutcomes(rows []experiments.ReplayRow) []outcome {
	out := make([]outcome, len(rows))
	for i, r := range rows {
		res := r.Result
		out[i] = outcome{r.Policy, int64(res.Executions), int64(res.TotalIOs), int64(res.DiskAccesses),
			res.Energy, int64(res.Global.Hits()), int64(res.Global.Misses())}
	}
	return out
}

func fleetOutcomes(results []*fleet.Result) []outcome {
	out := make([]outcome, len(results))
	for i, r := range results {
		out[i] = outcome{r.Policy, r.Executions, r.TotalIOs, r.DiskAccesses,
			r.Energy, int64(r.Global.Hits()), int64(r.Global.Misses())}
	}
	return out
}

// checkPhysics checks one comparison's results: energy components sum
// to each total, disk accesses never exceed I/Os, every policy saw the
// same executions and I/Os, and the Ideal oracle (when present) saves at
// least as much as every other policy.
func checkPhysics(res []outcome) error {
	if len(res) == 0 {
		return fmt.Errorf("no results")
	}
	ideal := -1
	for i, r := range res {
		if err := checkEnergy(r.policy, r.energy); err != nil {
			return err
		}
		if r.totalIOs <= 0 || r.diskAccesses > r.totalIOs {
			return fmt.Errorf("%s: %d disk accesses for %d I/Os", r.policy, r.diskAccesses, r.totalIOs)
		}
		if r.totalIOs != res[0].totalIOs || r.executions != res[0].executions {
			return fmt.Errorf("%s: %d I/Os in %d executions, %s saw %d in %d",
				r.policy, r.totalIOs, r.executions, res[0].policy, res[0].totalIOs, res[0].executions)
		}
		if r.policy == "Ideal" {
			ideal = i
		}
	}
	if ideal >= 0 {
		for _, r := range res {
			if res[ideal].energy.Total() > r.energy.Total()*(1+relTol) {
				return fmt.Errorf("Ideal uses %v J, more than %s's %v J", res[ideal].energy.Total(), r.policy, r.energy.Total())
			}
		}
	}
	return nil
}

// pcapFigures returns PCAP's disk-energy savings against Base and the
// share of its global shutdowns that were mispredictions, both in
// percent.
func pcapFigures(res []outcome) (savingsPct, missPct float64, err error) {
	var base, pcap *outcome
	for i := range res {
		switch res[i].policy {
		case "Base":
			base = &res[i]
		case "PCAP":
			pcap = &res[i]
		}
	}
	if base == nil || pcap == nil {
		return 0, 0, fmt.Errorf("results lack Base or PCAP")
	}
	savingsPct = 100 * (1 - pcap.energy.Total()/base.energy.Total())
	if sd := pcap.hits + pcap.misses; sd > 0 {
		missPct = 100 * float64(pcap.misses) / float64(sd)
	}
	return savingsPct, missPct, nil
}

// checkReplayTable parses a rendered replay table and applies the
// physics checks that its columns carry: disk accesses never exceed
// I/Os, every policy saw the same I/Os and executions, and Ideal's
// energy is the lowest.
func checkReplayTable(out string) error {
	var res []outcome
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 9 || f[0] == "Policy" || strings.HasPrefix(f[0], "-") {
			continue
		}
		var n [3]int64
		for i := range n {
			v, err := strconv.ParseInt(f[1+i], 10, 64)
			if err != nil {
				return fmt.Errorf("replay table row %q: %v", line, err)
			}
			n[i] = v
		}
		energy, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return fmt.Errorf("replay table row %q: %v", line, err)
		}
		res = append(res, outcome{policy: f[0], executions: n[0], totalIOs: n[1], diskAccesses: n[2],
			energy: disk.EnergyBreakdown{Busy: energy}})
	}
	if len(res) == 0 {
		return fmt.Errorf("replay output has no policy rows")
	}
	return checkPhysics(res)
}
