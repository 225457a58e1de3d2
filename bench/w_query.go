package main

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/ranking"
)

// queryCold: trserver with no flags, read-only. Every (user, topic) key
// is asked once, so the result cache never answers and each request pays
// the depth-2 exploration, the landmark fold and the encoding. One
// request in fifty asks for exact Tr, which holds the manager's lock for
// tens of milliseconds and so shows what the exact path does to its
// neighbours.
//
//	phase A  open loop, 200 req/s, 2 connections   -> latency at a fixed rate
//	phase B  closed loop, 2 clients, landmark only -> capacity
//
//	latency_p50_ms      recommend_p50_ms: landmark requests of phase A, due time to decoded 200
//	throughput_ops_s      recommend_capacity_qps: correct 200s per second in phase B, median of its half-second windows
//	within_limit_share  1 - recommend_over_limit_share: phase A requests answered within 50 ms of their due time
var queryCold = workload{
	Name:    "query-cold",
	Why:     "distinct keys, no writes: every request misses the result cache and pays exploration + landmark fold + encode",
	Stack:   g8k,
	Limit:   recommendLimit,
	traffic: queryColdTraffic,
}

const (
	readRate       = 200.0 // req/s in phase A
	trEvery        = 50    // one exact-Tr request per this many
	recommendLimit = 50 * time.Millisecond
)

func queryColdTraffic(e runEnv, s *stack, r *runResult, t *tally) error {
	warm, durA, durB := e.warmup(), e.dur(2.0/3), e.dur(1.0/3)
	nWarm, nA := int(readRate*warm.Seconds()), int(readRate*durA.Seconds())
	// Phase B is closed loop, so how many keys it consumes depends on the
	// machine; past this many it wraps around (and would hit the cache).
	nB := int(4000 * durB.Seconds())
	keys, err := distinctKeys(s.g, nWarm+nA+nB, e.Seed)
	if err != nil {
		return err
	}
	if len(keys) <= nWarm+nA {
		return fmt.Errorf("only %d distinct keys for %d requests", len(keys), nWarm+nA)
	}
	rd := newReader(e, s, &tally{}) // warm-up answers are not counted

	openLoop{Name: "warm-up", Rate: readRate, Dur: warm, Grace: warm, Workers: 2}.run(
		func(_, i int, _ time.Time) (bool, uint8) {
			return rd.get(keys[i], "landmark", 0) != nil, kindLandmark
		})
	rd.t = t

	// Phase A. The answers to a seeded sample of 100 requests are kept for
	// the comparison with direct calls below.
	keysA := keys[nWarm : nWarm+nA]
	// The exact-Tr requests are evenly spaced: two of them back to back
	// would stack their lock holds, and the few such pile-ups of a run
	// would then decide its p99.
	pick := rng(e.Seed, streamSample)
	exact := make([]bool, nA)
	for i := trEvery / 2; i < nA; i += trEvery {
		exact[i] = true
	}
	keep := make([]bool, nA)
	for n := 0; n < min(100, nA); {
		if i := pick.IntN(nA); !keep[i] {
			keep[i] = true
			n++
		}
	}
	kept := make([]*client.RecommendResponse, nA) // each element is written by the one worker that ran it
	samplesA, phA := openLoop{Name: "A", Rate: readRate, Dur: durA, Grace: durA / 4, Workers: 2}.run(
		func(_, i int, _ time.Time) (bool, uint8) {
			method, kind := "landmark", kindLandmark
			if exact[i] {
				method, kind = "tr", kindTr
			}
			resp := rd.get(keysA[i], method, int64(i+1))
			if resp == nil {
				return false, kind
			}
			if resp.Degraded {
				kind = kindTrDegraded
			}
			if keep[i] {
				kept[i] = resp
			}
			return true, kind
		})

	// Phase B.
	keysB := keys[nWarm+nA:]
	samplesB, phB := closedLoop{Name: "B", Dur: durB, Workers: 2}.run(
		func(_, i int, _ time.Time) (bool, uint8) {
			return rd.get(keysB[i%len(keysB)], "landmark", 0) != nil, kindLandmark
		})
	r.Phases = append(r.Phases, phA, phB)

	isLandmark := func(s opSample) bool { return s.Kind == kindLandmark }
	lat, _ := latencies(samplesA, isLandmark, recommendLimit)
	latTr, _ := latencies(samplesA, func(s opSample) bool { return s.Kind == kindTr }, recommendLimit)
	_, within := latencies(samplesA, func(opSample) bool { return true }, recommendLimit)
	qps := windowedRate(samplesB, durB, 500*time.Millisecond)

	p50 := reportPercentiles(r.Named, "recommend", lat)
	r.Named.setN("recommend_tr_p50_ms", median(latTr), "ms", len(latTr))
	r.Named.set("recommend_over_limit_share", 1-float64(within)/float64(len(samplesA)), "ratio")
	r.Named.set("recommend_capacity_qps", qps, "req/s")
	r.EndToEnd.setN(mLatP50, p50, "ms", len(lat))
	r.EndToEnd.set(mThroughput, qps, "1/s")
	r.EndToEnd.set(mWithinLimit, float64(within)/float64(len(samplesA)), "ratio")

	// The graph did not change, so every kept answer must equal what the
	// manager returns when asked directly.
	for i, resp := range kept {
		if resp == nil {
			continue // not in the sample, or the request failed and was counted
		}
		k := keysA[i]
		var want []ranking.Scored
		if exact[i] && !resp.Degraded {
			want = s.mgr.RecommendExact(k.User, k.Topic, rd.topN)
		} else if want, err = s.mgr.Recommend(k.User, k.Topic, rd.topN); err != nil {
			return err
		}
		if flaw := rankingFlaw(resp.Results, want); flaw != "" {
			t.flaw("user %d topic %s method %s: served ranking differs from the direct call: %s",
				k.User, resp.Topic, resp.Method, flaw)
		}
	}
	return nil
}

// rankingFlaw compares a served ranking with a directly computed one:
// same accounts in the same order with the same scores.
func rankingFlaw(got []client.Recommendation, want []ranking.Scored) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].User != uint32(want[i].Node) || got[i].Score != want[i].Score {
			return fmt.Sprintf("rank %d is (%d, %g), want (%d, %g)", i+1, got[i].User, got[i].Score, want[i].Node, want[i].Score)
		}
	}
	return ""
}
