package dynamic

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/landmark"
	"repro/internal/topics"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// schedMgr builds a bare manager shell over landmarks 0..9 with
// hand-planted stale state — scheduleLocked is pure bookkeeping, no engine
// needed.
func schedMgr(kind SchedulerKind, budget int) *Manager {
	m := &Manager{
		cfg:       Config{Scheduler: kind, RefreshBudget: budget},
		store:     landmark.NewStore(2, 10),
		allTopics: topics.NewSet(0, 1),
		staleMeta: make(map[graph.NodeID]*staleMeta),
	}
	for lm := graph.NodeID(0); lm < 10; lm++ {
		m.lms = append(m.lms, lm)
		m.store.Put(&landmark.Data{Landmark: lm, Topical: make([]landmark.List, 2)}) //nolint:errcheck // vocabulary matches
	}
	return m
}

func TestParseSchedulerKind(t *testing.T) {
	for in, want := range map[string]SchedulerKind{
		"all": SchedAll, "roundrobin": SchedRoundRobin, "rr": SchedRoundRobin,
		"priority": SchedPriority,
	} {
		got, err := ParseSchedulerKind(in)
		if err != nil || got != want {
			t.Fatalf("ParseSchedulerKind(%q) = %v, %v; want %v", in, got, err, want)
		}
		if _, err := ParseSchedulerKind(got.String()); err != nil {
			t.Fatalf("String %q does not round-trip", got)
		}
	}
	if _, err := ParseSchedulerKind("fifo"); err == nil {
		t.Fatal("unknown scheduler parsed")
	}
}

func TestSchedAllReturnsEverythingUnbudgeted(t *testing.T) {
	m := schedMgr(SchedAll, 1)
	for lm := graph.NodeID(0); lm < 5; lm++ {
		m.markStaleLocked(lm)
	}
	if got := m.scheduleLocked(); len(got) != 5 {
		t.Fatalf("SchedAll scheduled %d of 5 (budget must not apply)", len(got))
	}
}

func TestSchedRoundRobinIsFIFOAndBudgeted(t *testing.T) {
	m := schedMgr(SchedRoundRobin, 2)
	// Marked at batches 3, 1, 1, 2 — FIFO order 7, 9, 4, 5.
	m.stats.Batches = 3
	m.markStaleLocked(5)
	m.stats.Batches = 1
	m.markStaleLocked(9)
	m.markStaleLocked(7)
	m.stats.Batches = 2
	m.markStaleLocked(4)
	got := m.scheduleLocked()
	want := []graph.NodeID{7, 9}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("round-robin scheduled %v, want %v", got, want)
	}
}

func TestSchedPriorityRanksByScore(t *testing.T) {
	m := schedMgr(SchedPriority, 3)
	m.stats.Batches = 0
	for lm := graph.NodeID(1); lm <= 4; lm++ {
		m.markStaleLocked(lm)
	}
	m.stats.Batches = 4 // age 5 for everyone
	// Landmark 3: heavy query traffic. Landmark 2: re-dirtied twice.
	// Landmark 4: one query hit. Landmark 1: nothing.
	m.noteQueryHitLocked(3)
	m.noteQueryHitLocked(3)
	m.noteQueryHitLocked(3)
	m.markStaleLocked(2)
	m.markStaleLocked(2)
	m.noteQueryHitLocked(4)
	// Scores: 3 → 5·4·1=20, 2 → 5·1·3=15, 4 → 5·2·1=10, 1 → 5.
	got := m.scheduleLocked()
	want := []graph.NodeID{3, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("priority scheduled %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("priority scheduled %v, want %v", got, want)
		}
	}
}

func TestSchedPriorityTieBreaksByNodeID(t *testing.T) {
	m := schedMgr(SchedPriority, 10)
	for _, lm := range []graph.NodeID{9, 3, 6} {
		m.markStaleLocked(lm)
	}
	got := m.scheduleLocked()
	want := []graph.NodeID{3, 6, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("equal scores scheduled %v, want NodeID order %v", got, want)
		}
	}
}

func TestRefreshClearsStaleMeta(t *testing.T) {
	m := schedMgr(SchedPriority, 4)
	m.markStaleLocked(2)
	m.noteQueryHitLocked(2)
	m.store.SetStale(2, 0)
	delete(m.staleMeta, 2)
	// A fresh mark starts from zero evidence.
	m.stats.Batches = 7
	m.markStaleLocked(2)
	meta := m.staleMeta[2]
	if meta.since != 7 || meta.hits != 0 || meta.dirty != 0 {
		t.Fatalf("re-marked landmark kept stale evidence: %+v", *meta)
	}
}

// TestPriorityFresherThanRoundRobin: two managers identical but for the
// scheduler, both refreshing one landmark per batch, take the same seeded
// update stream in fixed batches with the same skewed queries between
// batches. The priority scheduler sees which stale landmarks the queries
// meet, so the queries must read fresher lists from it: a lower mean
// Kendall-tau staleness (QueryStaleness) than under FIFO round-robin,
// pooled over seeds fixed before the comparison was first run.
func TestPriorityFresherThanRoundRobin(t *testing.T) {
	// One goroutine throughout: the race detector has nothing to check
	// here, and its ~10x slowdown of the probes' explorations would cost
	// minutes.
	if testing.Short() || raceEnabled {
		t.Skip("staleness probes re-explore every met landmark")
	}
	const (
		nodes, edges = 500, 5000
		landmarks    = 20
		batches      = 80
		batchSize    = 25
		topK         = 10
		topic        = topics.ID(1)
	)
	// The query mix per batch: user 57 three times, user 200 once.
	mix := []struct {
		user  graph.NodeID
		count int
	}{{57, 3}, {200, 1}}
	kinds := []SchedulerKind{SchedRoundRobin, SchedPriority}
	var tau [2]float64
	var probes [2]int
	for _, seed := range []uint64{1, 2, 3} {
		ds := gen.RandomWith(nodes, edges, seed)
		lms, err := landmark.Select(ds.Graph, landmark.InDeg, landmarks, landmark.DefaultSelectConfig())
		if err != nil {
			t.Fatal(err)
		}
		var mgrs [2]*Manager
		for i, kind := range kinds {
			mgrs[i], err = NewManager(ds.Graph, lms, Config{
				Params: core.DefaultParams(), Sim: ds.Sim, StoreTopN: 100, QueryDepth: 2,
				Strategy: Eager, Scheduler: kind, RefreshBudget: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		all := allNodes(nodes)
		for b := 0; b < batches; b++ {
			// Both managers hold the same graph, so one draw serves both.
			batch := randomBatch(rng, mgrs[0].Graph(), all, batchSize)
			for i, m := range mgrs {
				if err := m.Apply(slices.Clone(batch)); err != nil {
					t.Fatal(err)
				}
				for _, q := range mix {
					for k := 0; k < q.count; k++ {
						if _, err := m.Recommend(q.user, topic, topK); err != nil {
							t.Fatal(err)
						}
					}
					if v, met := m.QueryStaleness(q.user, topic, topK); met > 0 {
						tau[i] += float64(q.count) * v
						probes[i] += q.count
					}
				}
			}
		}
	}
	if probes[0] == 0 || probes[0] != probes[1] {
		t.Fatalf("staleness probes: round-robin %d, priority %d", probes[0], probes[1])
	}
	rr, pr := tau[0]/float64(probes[0]), tau[1]/float64(probes[1])
	if pr >= rr {
		t.Errorf("priority mean tau %.4f not below round-robin %.4f", pr, rr)
	}
}
