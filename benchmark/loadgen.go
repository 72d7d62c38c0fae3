package main

import (
	"math/rand"
	"sync"
	"time"

	"ecgraph/internal/serve"
)

// predictFn answers one request.
type predictFn func(ids []int) ([]serve.Result, error)

// reqRecord is one scheduled request of an open-loop step. Each request's
// goroutine writes only its own record.
type reqRecord struct {
	due   time.Duration // since the step began
	fired bool          // false: the step ended before the generator got to it
	late  time.Duration // fired − due: how late the generator ran
	lat   time.Duration // answered − due
	bad   bool          // failed, rejected, or a vertex came back not OK
}

// dueTimes is the open-loop schedule: request i of a rate-r step is due at
// i/r, an absolute offset, so a late request never delays the next one.
func dueTimes(rate float64, seconds float64) []time.Duration {
	n := int(rate * seconds)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// openLoop offers one step: a single generator goroutine fires each request
// at its due time on a goroutine of its own, whether or not earlier ones
// have been answered, and latency runs from the due instant, so a stall
// charges every request it delayed. A generator that has fallen a quarter
// of the step behind gives up; what it did not send shows as not fired.
// check inspects an answer and reports whether it was acceptable. openLoop
// returns once every fired request has been answered.
func openLoop(predict predictFn, check func([]serve.Result, error) bool, due []time.Duration, length time.Duration, rng *rand.Rand, maxVertex int) (recs []reqRecord, start time.Time) {
	recs = make([]reqRecord, len(due))
	var wg sync.WaitGroup
	start = time.Now()
	for i := range due {
		recs[i].due = due[i]
		now := time.Since(start)
		if now > length+length/4 {
			break // hopelessly behind: the rest of the schedule was not offered
		}
		if wait := due[i] - now; wait > 0 {
			time.Sleep(wait)
			now = time.Since(start)
		}
		ids := make([]int, reqVertices)
		for k := range ids {
			ids[k] = rng.Intn(maxVertex)
		}
		rec := &recs[i]
		rec.fired, rec.late = true, now-due[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := predict(ids)
			rec.lat = time.Since(start) - rec.due
			rec.bad = !check(res, err)
		}()
	}
	wg.Wait()
	return recs, start
}

// bulkRecord is one request of the closed loop.
type bulkRecord struct {
	done time.Duration // when it was answered, since the loop began
	lat  time.Duration
	bad  bool
}

// closedLoop runs clients callers that each send their next request only
// when the previous one is answered, for length, and returns every request.
func closedLoop(predict predictFn, check func([]serve.Result, error) bool, clients, vertices int, length time.Duration, seed int64, maxVertex int) []bulkRecord {
	outs := make([][]bulkRecord, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			ids := make([]int, vertices)
			for time.Since(start) < length {
				for k := range ids {
					ids[k] = rng.Intn(maxVertex)
				}
				t0 := time.Now()
				res, err := predict(ids)
				now := time.Now()
				outs[c] = append(outs[c], bulkRecord{done: now.Sub(start), lat: now.Sub(t0), bad: !check(res, err)})
			}
		}(c)
	}
	wg.Wait()
	var recs []bulkRecord
	for _, o := range outs {
		recs = append(recs, o...)
	}
	return recs
}

// burstRate is the throughput of one closed-loop burst: acceptable requests
// answered within length, per second. The last request of each client is
// answered after the end and does not count.
func burstRate(recs []bulkRecord, length time.Duration) float64 {
	n := 0
	for _, r := range recs {
		if !r.bad && r.done <= length {
			n++
		}
	}
	return float64(n) / length.Seconds()
}
