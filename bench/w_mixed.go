package main

import (
	"sync"
	"time"
)

// mixedRW: the streaming quickstart on the 2000-node graph, read and
// written at once. The reads are the same code query-cold runs, used the
// other way: a Zipf-skewed set of 2048 keys fits the result cache, so
// between batches most reads are hits; each applied batch empties the
// cache and marks landmarks stale, and the reads that follow refresh them
// under the manager's lock. A change that speeds reads by slowing writes,
// or the reverse, shows here.
//
//	one phase, open loop: 100 landmark reads/s (1 connection) beside one 4-update POST every 2 s
//
//	latency_p50_ms      recommend_p50_ms: due time to decoded 200
//	throughput_ops_s    recommend_achieved_qps: correct 200s per second of the phase; below the
//	                    offered 100/s only when the reader cannot work off a stall before the phase ends
//	within_limit_share  1 - recommend_over_limit_share: reads answered within 50 ms of their due time
var mixedRW = workload{
	Name:    "mixed-rw",
	Why:     "cacheable Zipf reads beside one write batch per 2 s: cache hits, wholesale invalidation, lazy landmark refresh and lock wait",
	Stack:   g2k.streaming(),
	Limit:   recommendLimit,
	traffic: mixedRWTraffic,
}

const (
	mixedReadRate   = 100.0 // reads/s in phase A
	mixedKeys       = 2048
	mixedZipfS      = 1.1
	mixedBatch      = 4
	mixedBatchEvery = 2 * time.Second
)

func mixedRWTraffic(e runEnv, s *stack, r *runResult, t *tally) error {
	// The phase lasts a whole number of write periods, so that it contains
	// the same number of stalls whatever its length's remainder.
	warm, durA := e.warmup(), max(e.dur(1).Truncate(mixedBatchEvery), mixedBatchEvery)
	keys, err := distinctKeys(s.g, mixedKeys, e.Seed)
	if err != nil {
		return err
	}
	nBatches := int(durA/mixedBatchEvery) + 1
	stream, err := churnStream(s.g, nBatches*mixedBatch, e.Seed, nil)
	if err != nil {
		return err
	}
	z := newZipf(len(keys), mixedZipfS, rng(e.Seed, streamZipf))
	// The key sequence is drawn up front so that it does not depend on
	// which worker asks first.
	draw := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	rd := newReader(e, s, &tally{}) // warm-up answers are not counted
	seqWarm := draw(int(mixedReadRate * warm.Seconds()))
	openLoop{Name: "warm-up", Rate: mixedReadRate, Dur: warm, Grace: warm, Workers: 1}.run(
		func(_, i int, _ time.Time) (bool, uint8) {
			return rd.get(keys[seqWarm[i]], "landmark", 0) != nil, kindLandmark
		})
	rd.t = t

	// The writer posts on its own schedule.
	var writer sync.WaitGroup
	var phW phaseStats
	writer.Add(1)
	go func() {
		defer writer.Done()
		p := poster{s: s, t: t}
		_, phW = openLoop{Name: "writes", Rate: 1 / mixedBatchEvery.Seconds(), Dur: durA, Grace: time.Second, Workers: 1}.run(
			func(_, i int, due time.Time) (bool, uint8) {
				ok, _ := p.post(stamped(stream.Items[i*mixedBatch:(i+1)*mixedBatch], due.UnixNano()))
				return ok, 0
			})
	}()

	seqA := draw(int(mixedReadRate * durA.Seconds()))
	samplesA, phA := openLoop{Name: "A", Rate: mixedReadRate, Dur: durA, Grace: durA / 4, Workers: 1}.run(
		func(_, i int, _ time.Time) (bool, uint8) {
			return rd.get(keys[seqA[i]], "landmark", int64(i+1)) != nil, kindLandmark
		})
	writer.Wait()
	if err := s.pipe.Flush(); err != nil {
		return err
	}
	r.Phases = append(r.Phases, phA, phW)

	lat, within := latencies(samplesA, func(opSample) bool { return true }, recommendLimit)
	qps := float64(okCount(samplesA)) / phA.Seconds // to the last answer, which a stall can push past the schedule's end
	p50 := reportPercentiles(r.Named, "recommend", lat)
	r.Named.set("recommend_over_limit_share", 1-float64(within)/float64(len(samplesA)), "ratio")
	r.Named.set("recommend_achieved_qps", qps, "req/s")
	r.EndToEnd.setN(mLatP50, p50, "ms", len(lat))
	r.EndToEnd.set(mThroughput, qps, "1/s")
	r.EndToEnd.set(mWithinLimit, float64(within)/float64(len(samplesA)), "ratio")
	return nil
}
