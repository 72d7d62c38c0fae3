package serve

import (
	"fmt"
	"time"

	"ecgraph/internal/transport"
)

// dispatch is the batcher loop, work-conserving: it takes the oldest
// waiting request, drains whatever is already queued behind it up to
// MaxBatch vertices, then waits for whichever comes first — a free round
// slot, and the batch leaves; or another arrival, and it joins. So a
// request that finds a slot free never waits, and coalescing happens
// exactly while every slot is busy: when the service is the bottleneck and
// SpMM-sized batches pay (one shard call aggregates the whole batch through
// the split kernels instead of one sparse row at a time). No timer: a batch
// that cannot get a slot cannot leave anyway. A request that would push the
// batch past MaxBatch heads the next one, so a request larger than MaxBatch
// goes alone.
func (s *Service) dispatch() {
	defer s.dispatchWG.Done()
	var next *request
	for {
		head := next
		if head == nil {
			var ok bool
			if head, ok = <-s.queue; !ok {
				return
			}
		}
		batch, nv, carry := s.coalesce(head)
		next = carry
		s.waiting.Add(int64(-len(batch)))
		s.m.queueDepth.Add(float64(-len(batch)))
		s.m.batchSize.Observe(float64(nv))

		s.roundWG.Add(1)
		go func(batch []*request) {
			defer func() {
				<-s.roundSem
				s.roundWG.Done()
			}()
			s.runBatch(batch)
		}(batch)
	}
}

// coalesce builds one batch of nv vertices behind head and returns holding
// a round slot. next is a request taken from the queue that did not fit
// under MaxBatch; it heads the following batch. A closed queue ends
// coalescing: what was taken still dispatches.
func (s *Service) coalesce(head *request) (batch []*request, nv int, next *request) {
	batch = []*request{head}
	nv = len(head.ids)
	queue := s.queue
	for nv < s.cfg.MaxBatch && queue != nil {
		var r *request
		var ok bool
		select {
		case r, ok = <-queue: // already queued: drain before racing the slot
		default:
			select {
			case r, ok = <-queue:
			case s.roundSem <- struct{}{}:
				return batch, nv, nil
			}
		}
		switch {
		case !ok:
			queue = nil
		case nv+len(r.ids) > s.cfg.MaxBatch:
			next, queue = r, nil
		default:
			batch = append(batch, r)
			nv += len(r.ids)
		}
	}
	s.roundSem <- struct{}{}
	return batch, nv, next
}

// vertexSlot addresses one vertex of one request within a batch round.
type vertexSlot struct {
	req int // index into the batch
	pos int // index into that request's ids
}

// runBatch serves one coalesced batch: retain the active version, group
// the vertices by owning shard, fan the per-shard batch calls out over the
// transport, and scatter the answers back to the waiting requests.
func (s *Service) runBatch(batch []*request) {
	start := time.Now()
	v, ref := s.retainActive()
	defer ref.Add(-1)

	for _, r := range batch {
		r.results = make([]Result, len(r.ids))
		for i, id := range r.ids {
			r.results[i] = Result{Vertex: id, Class: -1, Version: v}
		}
	}

	perShard := make(map[int][]int32)
	slots := make(map[int][]vertexSlot)
	for ri, r := range batch {
		for pi, id := range r.ids {
			sh := int(s.owner[id])
			perShard[sh] = append(perShard[sh], int32(id))
			slots[sh] = append(slots[sh], vertexSlot{req: ri, pos: pi})
		}
	}

	calls := make([]transport.Call, 0, len(perShard))
	order := make([]int, 0, len(perShard))
	for sh, ids := range perShard {
		w := transport.GetWriter(8 + 4*len(ids))
		w.Uint32(v)
		w.Int32s(ids)
		calls = append(calls, transport.Call{Dst: sh, Method: methodBatch, Req: append([]byte(nil), w.Bytes()...)})
		order = append(order, sh)
		w.Release()
	}

	results := s.net.CallMulti(s.front, calls)
	for ci, res := range results {
		sh := order[ci]
		if res.Err != nil {
			// The whole shard call failed: every vertex it owned in
			// this batch carries the error, the rest of the batch is
			// unaffected.
			for _, slot := range slots[sh] {
				out := &batch[slot.req].results[slot.pos]
				out.Err = fmt.Sprintf("shard %d: %v", sh, res.Err)
				s.m.vertexFailed.Inc()
			}
			continue
		}
		logits := transport.NewReader(res.Resp).Matrix()
		for k, slot := range slots[sh] {
			out := &batch[slot.req].results[slot.pos]
			row := logits.Row(k)
			out.Logits = append([]float32(nil), row...)
			out.OK = true
			out.Class = argMax(row)
		}
	}

	round := time.Since(start).Seconds()
	for _, r := range batch {
		s.m.stageQueue.Observe(start.Sub(r.enq).Seconds())
		s.m.stageRound.Observe(round)
		close(r.done)
	}
}

func argMax(row []float32) int {
	best := 0
	for j, x := range row {
		if x > row[best] {
			best = j
		}
	}
	return best
}
