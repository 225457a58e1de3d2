package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// opSample is one operation of a load phase. Times are nanoseconds since
// the phase started. An operation the generator never got to send has
// Sent < 0.
type opSample struct {
	Due, Sent, Done int64
	OK              bool
	Kind            uint8 // workload-defined class of the request
}

// latency is counted from the due time, not the send time: when the
// target stalls, the requests that queue up behind the stall are charged
// the wait they would have had as independent arrivals.
func (s opSample) latency() int64 { return s.Done - s.Due }

// phaseStats is what every load phase reports about the generator itself.
type phaseStats struct {
	Name          string  `json:"name"`
	Loop          string  `json:"loop"` // "open" or "closed"
	Seconds       float64 `json:"seconds"`
	Workers       int     `json:"workers"`
	TargetRate    float64 `json:"target_rate,omitempty"` // ops/s asked for (open loop)
	AchievedRate  float64 `json:"achieved_rate"`         // ops/s sent
	AchievedShare float64 `json:"achieved_share"`        // sent / scheduled (1 for closed loops)
	LatenessP99Ms float64 `json:"lateness_p99_ms"`       // how late the generator itself sent
	Scheduled     int     `json:"scheduled"`
	Sent          int     `json:"sent"`
	OK            int     `json:"ok"`
	Saturated     bool    `json:"saturated,omitempty"`
}

// openLoop sends rate operations per second for dur, on a fixed schedule
// that does not slow when the target does. A fixed set of workers takes
// the scheduled operations in order; each waits for its operation's due
// time, or sends at once when already late. Operations still unsent when
// the phase has overrun by grace are dropped and counted against
// AchievedShare.
type openLoop struct {
	Name    string
	Rate    float64
	Dur     time.Duration
	Grace   time.Duration
	Workers int
}

// opFunc performs operation i, due at the given wall-clock time.
type opFunc func(worker, i int, due time.Time) (ok bool, kind uint8)

func (l openLoop) run(op opFunc) ([]opSample, phaseStats) {
	n := int(l.Rate * l.Dur.Seconds())
	samples := make([]opSample, n)
	for i := range samples {
		samples[i] = opSample{Due: int64(float64(i) / l.Rate * 1e9), Sent: -1}
	}
	start := time.Now()
	cutoff := start.Add(l.Dur + l.Grace)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < l.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := &samples[i]
				due := start.Add(time.Duration(s.Due))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				now := time.Now()
				if now.After(cutoff) {
					return
				}
				s.Sent = now.Sub(start).Nanoseconds()
				s.OK, s.Kind = op(w, i, due)
				s.Done = time.Since(start).Nanoseconds()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := phaseStats{Name: l.Name, Loop: "open", Seconds: elapsed.Seconds(), Workers: l.Workers,
		TargetRate: l.Rate, Scheduled: n}
	var late []float64
	for _, s := range samples {
		if s.Sent < 0 {
			continue
		}
		st.Sent++
		if s.OK {
			st.OK++
		}
		late = append(late, msOf(s.Sent-s.Due))
	}
	st.AchievedShare = 1
	if n > 0 {
		st.AchievedShare = float64(st.Sent) / float64(n)
	}
	st.AchievedRate = float64(st.Sent) / max(elapsed.Seconds(), l.Dur.Seconds())
	st.LatenessP99Ms = percentile(sorted(late), 99)
	st.Saturated = st.AchievedShare < 0.9
	return samples, st
}

// closedLoop runs workers that each send their next operation as soon as
// the previous one completed, for dur. Every worker finishes the
// operation it has in flight when the time is up.
type closedLoop struct {
	Name    string
	Dur     time.Duration
	Workers int
}

func (l closedLoop) run(op opFunc) ([]opSample, phaseStats) {
	start := time.Now()
	end := start.Add(l.Dur)
	perWorker := make([][]opSample, l.Workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < l.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				i := int(next.Add(1)) - 1
				sent := now.Sub(start).Nanoseconds()
				ok, kind := op(w, i, now)
				perWorker[w] = append(perWorker[w], opSample{
					Due: sent, Sent: sent, Done: time.Since(start).Nanoseconds(), OK: ok, Kind: kind,
				})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var samples []opSample
	for _, ws := range perWorker {
		samples = append(samples, ws...)
	}
	st := phaseStats{Name: l.Name, Loop: "closed", Seconds: elapsed.Seconds(), Workers: l.Workers,
		Scheduled: len(samples), Sent: len(samples), AchievedShare: 1}
	for _, s := range samples {
		if s.OK {
			st.OK++
		}
	}
	st.AchievedRate = float64(st.Sent) / elapsed.Seconds()
	return samples, st
}
