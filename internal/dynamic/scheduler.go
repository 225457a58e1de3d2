package dynamic

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Refresh scheduling: which stale landmarks each refresh opportunity
// actually re-explores. The legacy policy refreshes every stale landmark
// at once — correct but bursty, and under a sustained update stream the
// burst grows without bound. The budgeted schedulers refresh at most
// RefreshBudget landmarks per opportunity and differ in how they pick
// them (the opportunities are Apply's under Eager and Threshold, and a
// scheduled landmark is refreshed on every topic; a Lazy query refreshes
// its own topic on every stale landmark it would read, unbudgeted):
//
//   - round-robin: oldest stale mark first (FIFO) — the fairness
//     baseline;
//   - priority: highest score first, where a landmark's score is its
//     staleness age (in batches) × (1 + query traffic observed since it
//     went stale) × (1 + update hits that re-dirtied it). Hot landmarks
//     that queries actually read, and landmarks invalidated by many
//     edge changes, are repaired first; cold corners of the graph wait.
//
// Scores use the batch counter as the clock, not wall time, so the
// schedule is a deterministic function of the update/query stream.

// SchedulerKind selects the refresh scheduling policy.
type SchedulerKind int

const (
	// SchedAll refreshes every stale landmark at each opportunity (the
	// legacy policy; no budget).
	SchedAll SchedulerKind = iota
	// SchedRoundRobin refreshes the RefreshBudget oldest stale
	// landmarks, FIFO by the batch that marked them stale.
	SchedRoundRobin
	// SchedPriority refreshes the RefreshBudget highest-scored stale
	// landmarks (staleness age × query traffic × dirty hits).
	SchedPriority
)

// String names the scheduler (flag value syntax).
func (k SchedulerKind) String() string {
	switch k {
	case SchedAll:
		return "all"
	case SchedRoundRobin:
		return "roundrobin"
	case SchedPriority:
		return "priority"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", int(k))
	}
}

// ParseSchedulerKind parses the -refresh-sched flag syntax.
func ParseSchedulerKind(s string) (SchedulerKind, error) {
	switch s {
	case "all":
		return SchedAll, nil
	case "roundrobin", "rr":
		return SchedRoundRobin, nil
	case "priority":
		return SchedPriority, nil
	}
	return 0, fmt.Errorf("dynamic: unknown scheduler %q (all, roundrobin, priority)", s)
}

// staleMeta is the per-landmark evidence the priority score weighs.
type staleMeta struct {
	since uint64 // batch counter when the landmark went stale
	dirty int    // update hits since (re-marks while already stale)
	hits  uint64 // queries that met the landmark since it went stale
}

// markStaleLocked marks every topic of lm stale at the current batch
// clock, accumulating dirty hits on re-marks of a landmark still stale on
// some topic. Caller holds mu.
func (m *Manager) markStaleLocked(lm graph.NodeID) {
	was := m.store.Stale(lm)
	m.store.SetStale(lm, m.allTopics)
	if was != 0 {
		if meta, ok := m.staleMeta[lm]; ok {
			meta.dirty++
		}
		return
	}
	m.staleMeta[lm] = &staleMeta{since: uint64(m.stats.Batches)}
}

// noteQueryHitLocked records that a query's exploration met landmark lm
// (traffic evidence for the priority score). Caller holds mu.
func (m *Manager) noteQueryHitLocked(lm graph.NodeID) {
	if meta, ok := m.staleMeta[lm]; ok {
		meta.hits++
	}
}

// scheduleLocked picks the stale landmarks this refresh opportunity
// repairs, per the configured scheduler. Caller holds mu.
func (m *Manager) scheduleLocked() []graph.NodeID {
	out := m.staleList()
	if m.cfg.Scheduler == SchedAll || len(out) == 0 {
		return out
	}
	budget := m.cfg.RefreshBudget
	now := uint64(m.stats.Batches)
	switch m.cfg.Scheduler {
	case SchedRoundRobin:
		sort.Slice(out, func(i, j int) bool {
			a, b := m.staleMeta[out[i]], m.staleMeta[out[j]]
			if a.since != b.since {
				return a.since < b.since
			}
			return out[i] < out[j] // deterministic tie-break
		})
	case SchedPriority:
		score := func(lm graph.NodeID) float64 {
			meta := m.staleMeta[lm]
			age := float64(now-meta.since) + 1
			return age * float64(1+meta.hits) * float64(1+meta.dirty)
		}
		sort.Slice(out, func(i, j int) bool {
			si, sj := score(out[i]), score(out[j])
			if si != sj {
				return si > sj
			}
			return out[i] < out[j]
		})
	}
	if budget > 0 && len(out) > budget {
		out = out[:budget]
	}
	return out
}
