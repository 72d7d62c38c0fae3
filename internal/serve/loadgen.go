package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// PredictFn is the load generator's target: one request of vertex ids,
// nil on success. Overload rejections are reported as ErrOverloaded so the
// report can separate backpressure from real failures.
type PredictFn func(ids []int) error

// LoadGenConfig drives RunLoad.
type LoadGenConfig struct {
	QPS         float64       // offered request rate (required)
	Duration    time.Duration // how long to offer load (required)
	BatchSize   int           // vertices per request (default 1)
	MaxVertex   int           // ids drawn uniformly from [0, MaxVertex) (required)
	Seed        int64         // id-sequence seed
	MaxInFlight int           // open-loop cap; arrivals beyond it count as rejected (default 1024)

	// SwapAt fires Swap once, that long into the run, to measure a hot
	// model swap under load. Zero disables.
	SwapAt time.Duration
	Swap   func() error
}

// LoadReport is what a load run measured.
type LoadReport struct {
	Offered   int           `json:"offered"`
	Completed int           `json:"completed"`
	Failed    int           `json:"failed"`
	Rejected  int           `json:"rejected"`
	Duration  time.Duration `json:"-"`

	// OfferedQPS is the rate the generator actually sustained, Offered over
	// the offering window; below cfg.QPS when it could not keep its schedule.
	OfferedQPS         float64       `json:"offered_qps"`
	AchievedQPS        float64       `json:"achieved_qps"`
	P50, P95, P99, Max time.Duration `json:"-"`

	SwapPerformed    bool          `json:"swap_performed"`
	SwapErr          string        `json:"swap_error,omitempty"`
	SwapDuration     time.Duration `json:"-"`
	SwapWindowFailed int           `json:"swap_window_failed"`
}

// RunLoad offers cfg.QPS requests per second to predict for cfg.Duration
// in an open loop — arrivals are clocked, not gated on completions, so a
// slow service shows up as latency and backpressure rather than a silently
// reduced offered rate. Request i is due at the absolute instant
// start + i/QPS, whether or not the generator woke in time for request i−1,
// and its latency runs from that due instant: a stall of the generator or
// the machine is charged to every request it delayed. A generator that is
// still behind its schedule when cfg.Duration ends stops there; what it did
// not send lowers OfferedQPS, never the reported latency.
func RunLoad(predict PredictFn, cfg LoadGenConfig) LoadReport {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1024
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var (
		mu        sync.Mutex
		latencies []time.Duration
		rep       LoadReport
		wg        sync.WaitGroup
		inFlight  atomic.Int64
		swapping  atomic.Bool
	)
	if cfg.SwapAt > 0 && cfg.Swap != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(cfg.SwapAt)
			swapping.Store(true)
			t0 := time.Now()
			err := cfg.Swap()
			d := time.Since(t0)
			swapping.Store(false)
			mu.Lock()
			rep.SwapPerformed = true
			rep.SwapDuration = d
			if err != nil {
				rep.SwapErr = err.Error()
			}
			mu.Unlock()
		}()
	}

	start := time.Now()
	offered, asked := 0, int(cfg.QPS*cfg.Duration.Seconds())
	for ; offered < asked; offered++ {
		due := start.Add(time.Duration(float64(offered) / cfg.QPS * float64(time.Second)))
		now := time.Now()
		if now.Sub(start) >= cfg.Duration {
			break // every due instant lies inside the window: the generator fell behind
		}
		if wait := due.Sub(now); wait > 0 {
			time.Sleep(wait)
		}
		ids := make([]int, cfg.BatchSize)
		for k := range ids {
			ids[k] = rng.Intn(cfg.MaxVertex)
		}
		if inFlight.Load() >= int64(cfg.MaxInFlight) {
			mu.Lock()
			rep.Rejected++
			mu.Unlock()
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inFlight.Add(-1)
			err := predict(ids)
			lat := time.Since(due)
			duringSwap := swapping.Load()
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				rep.Completed++
				latencies = append(latencies, lat)
			case errors.Is(err, ErrOverloaded):
				rep.Rejected++
			default:
				rep.Failed++
				if duringSwap {
					rep.SwapWindowFailed++
				}
			}
		}()
	}
	wg.Wait()
	rep.Offered = offered
	rep.Duration = time.Since(start)
	rep.OfferedQPS = float64(offered) / cfg.Duration.Seconds()
	rep.AchievedQPS = float64(rep.Completed) / rep.Duration.Seconds()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50 = percentile(latencies, 0.50)
	rep.P95 = percentile(latencies, 0.95)
	rep.P99 = percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		rep.Max = latencies[n-1]
	}
	return rep
}

func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// DirectPredict adapts a Service into a PredictFn, treating any per-vertex
// failure as a failed request.
func DirectPredict(svc *Service) PredictFn {
	return func(ids []int) error {
		results, err := svc.Predict(ids)
		if err != nil {
			return err
		}
		for _, r := range results {
			if !r.OK {
				return fmt.Errorf("vertex %d: %s", r.Vertex, r.Err)
			}
		}
		return nil
	}
}

// HTTPPredict adapts a running ecgraph-serve front door into a PredictFn.
// 429 maps to ErrOverloaded so backpressure is attributed correctly.
func HTTPPredict(baseURL string, timeout time.Duration) PredictFn {
	client := &http.Client{Timeout: timeout}
	return func(ids []int) error {
		body, err := json.Marshal(PredictRequest{Vertices: ids})
		if err != nil {
			return err
		}
		resp, err := client.Post(baseURL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			return ErrOverloaded
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("predict: HTTP %d", resp.StatusCode)
		}
		var pr PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			return err
		}
		for _, r := range pr.Results {
			if !r.OK {
				return fmt.Errorf("vertex %d: %s", r.Vertex, r.Err)
			}
		}
		return nil
	}
}

// minOfferedFrac is the share of the asked rate a run must actually have
// offered for its latencies to describe that rate at all.
const minOfferedFrac = 0.99

// WriteBench records the run in the repo's shared BENCH_*.json schema: the
// measured numbers plus a self-evaluating gate, so CI re-checks the
// artifact itself rather than trusting the run's exit status. A run whose
// generator offered less than minOfferedFrac of the asked rate fails the
// gate whatever its latencies: they were measured under a lighter load.
func (r LoadReport) WriteBench(path string, cfg LoadGenConfig, minQPS, maxP99MS float64) (ok bool, err error) {
	p99ms := float64(r.P99) / float64(time.Millisecond)
	ok = r.AchievedQPS >= minQPS && p99ms <= maxP99MS && r.Failed == 0 &&
		r.OfferedQPS >= minOfferedFrac*cfg.QPS
	if r.SwapPerformed {
		ok = ok && r.SwapErr == "" && r.SwapWindowFailed == 0
	}
	out := map[string]any{
		"benchmark":    "serving",
		"asked_qps":    cfg.QPS,
		"offered_qps":  r.OfferedQPS,
		"duration_s":   cfg.Duration.Seconds(),
		"batch_size":   cfg.BatchSize,
		"offered":      r.Offered,
		"completed":    r.Completed,
		"failed":       r.Failed,
		"rejected":     r.Rejected,
		"achieved_qps": r.AchievedQPS,
		"latency_ms": map[string]any{
			"p50": float64(r.P50) / float64(time.Millisecond),
			"p95": float64(r.P95) / float64(time.Millisecond),
			"p99": p99ms,
			"max": float64(r.Max) / float64(time.Millisecond),
		},
		"swap": map[string]any{
			"performed":      r.SwapPerformed,
			"duration_ms":    float64(r.SwapDuration) / float64(time.Millisecond),
			"failed_in_swap": r.SwapWindowFailed,
			"error":          r.SwapErr,
		},
		"gate": map[string]any{
			"min_qps":          minQPS,
			"max_p99_ms":       maxP99MS,
			"min_offered_frac": minOfferedFrac,
			"ok":               ok,
		},
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return ok, err
	}
	return ok, os.WriteFile(path, append(blob, '\n'), 0o644)
}
