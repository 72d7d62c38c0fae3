// Package ps implements EC-Graph's Parameter Manager: the model parameters
// are flattened into one vector, split into contiguous ranges across M
// parameter servers (the paper's built-in range-based partition of W and B,
// §III-A), and trained with server-side Adam over globally summed worker
// gradients (Alg. 2 lines 1-3).
//
// Workers interact through two operators, pull and push. Training is
// synchronous: push contributes a worker's gradients for the current epoch;
// when all workers have pushed, the server applies Adam and advances its
// version; pull blocks until the requested version is available.
package ps

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"ecgraph/internal/nn"
	"ecgraph/internal/transport"
)

// RPC method names served by Server.Handler.
const (
	MethodPull = "ps.pull"
	MethodPush = "ps.push"
	// MethodVersion reports the server's applied-update count without
	// blocking — the supervision layer reads it during recovery to learn how
	// far each range advanced before a worker died (a failed epoch can leave
	// servers one version apart when only some ranges completed the barrier).
	MethodVersion = "ps.version"
	// MethodRepl carries a full encoded State from a range's primary to its
	// hot-standby backup: each applied update is log-shipped inside the push
	// critical section (see SetShip), and a full snapshot travels the same
	// way when the engine re-syncs a fresh or stale backup.
	MethodRepl = "ps.repl"
)

// Range is a half-open slice [Lo, Hi) of the flat parameter vector.
type Range struct {
	Lo, Hi int
}

// Len returns the number of parameters in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Ranges splits total parameters evenly across m servers (range-based
// partition). The first total mod m ranges hold one extra element.
func Ranges(total, m int) []Range {
	if m <= 0 {
		panic(fmt.Sprintf("ps: need at least one server, got %d", m))
	}
	out := make([]Range, m)
	base, extra := total/m, total%m
	lo := 0
	for i := range out {
		n := base
		if i < extra {
			n++
		}
		out[i] = Range{Lo: lo, Hi: lo + n}
		lo += n
	}
	return out
}

// ServerOptions carries the optional optimiser refinements.
type ServerOptions struct {
	// MaxGradNorm clips the summed gradient's L2 norm per update when > 0.
	// Each server clips against its own range's norm scaled by its share of
	// the parameters, a common approximation that avoids a cross-server
	// reduction.
	MaxGradNorm float64
	// LRDecay multiplies the learning rate after every update when in
	// (0, 1); 0 or 1 keeps it constant.
	LRDecay float64
}

// historyDepth bounds the per-version parameter snapshots a server retains
// for version-exact pulls. Synchronous training keeps ranges at most one
// version apart (a failed epoch can complete the barrier on some ranges but
// not others), so a handful of versions is ample headroom; a pull for an
// evicted version fails loudly instead of silently serving newer state.
const historyDepth = 8

// Server owns one parameter range with its Adam state.
type Server struct {
	mu   sync.Mutex
	cond *sync.Cond

	params   []float32
	opt      *nn.Adam
	opts     ServerOptions
	version  int // epochs applied
	pending  []float32
	expected int               // workers per epoch
	contribs map[int][]float32 // per-worker gradients for the current version

	// history maps version → the parameters as of that version, for the
	// last historyDepth versions. Version-exact pulls keep a replayed epoch
	// bitwise identical even when another range already advanced past it.
	history map[int][]float32

	// ship, when set, replicates each applied update to the range's backup
	// before the new version becomes observable (it runs under mu). A failed
	// ship marks the replica stale until the engine re-syncs it.
	ship      func(State) error
	shipStale bool
}

// NewServer creates a server owning the given initial parameter slice
// (copied), updated by Adam with learning rate lr once all expected workers
// have pushed.
func NewServer(initial []float32, lr float64, expectedWorkers int) *Server {
	return NewServerOpts(initial, lr, expectedWorkers, ServerOptions{})
}

// NewServerOpts is NewServer with gradient clipping and LR decay.
func NewServerOpts(initial []float32, lr float64, expectedWorkers int, opts ServerOptions) *Server {
	if expectedWorkers <= 0 {
		panic(fmt.Sprintf("ps: expectedWorkers must be positive, got %d", expectedWorkers))
	}
	s := &Server{
		params:   append([]float32(nil), initial...),
		opt:      nn.NewAdam(lr, len(initial)),
		opts:     opts,
		pending:  make([]float32, len(initial)),
		expected: expectedWorkers,
		contribs: make(map[int][]float32),
		history:  map[int][]float32{0: append([]float32(nil), initial...)},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Version returns the number of applied updates.
func (s *Server) Version() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Handler returns the transport handler serving pull and push.
func (s *Server) Handler() transport.Handler {
	return func(method string, req []byte) ([]byte, error) {
		switch method {
		case MethodPull:
			r := transport.NewReader(req)
			version := int(r.Uint32())
			params, err := s.pullWait(version)
			if err != nil {
				return nil, err
			}
			w := transport.NewWriter(4 + len(params)*4)
			w.Float32s(params)
			return w.Bytes(), nil
		case MethodPush:
			r := transport.NewReader(req)
			version := int(r.Uint32())
			worker := int(r.Int32())
			grads := r.Float32s()
			if err := s.push(version, worker, grads); err != nil {
				return nil, err
			}
			return nil, nil
		case MethodVersion:
			w := transport.NewWriter(4)
			w.Uint32(uint32(s.Version()))
			return w.Bytes(), nil
		case MethodRepl:
			if err := s.ApplyReplica(DecodeState(req)); err != nil {
				return nil, err
			}
			return nil, nil
		default:
			return nil, fmt.Errorf("ps: unknown method %q", method)
		}
	}
}

// pullWait blocks until version updates have been applied, then returns a
// snapshot of the parameters *as of exactly that version*. Serving the
// requested version rather than the newest one matters for crash recovery:
// a replayed epoch can find one range a version ahead (its barrier completed
// before the crash), and a version-exact pull keeps the replay's inputs —
// and therefore the whole trajectory — bitwise identical to a run that
// never crashed, while the advanced range acknowledges the replayed pushes
// as stale.
func (s *Server) pullWait(version int) ([]float32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.version < version {
		s.cond.Wait()
	}
	if version == s.version {
		return append([]float32(nil), s.params...), nil
	}
	if p, ok := s.history[version]; ok {
		return append([]float32(nil), p...), nil
	}
	return nil, fmt.Errorf("ps: version %d evicted (server at %d, keeps %d)", version, s.version, historyDepth)
}

// recordHistoryLocked archives the current parameters under the current
// version and evicts the oldest retained snapshot. Callers hold s.mu.
func (s *Server) recordHistoryLocked() {
	s.history[s.version] = append([]float32(nil), s.params...)
	delete(s.history, s.version-historyDepth)
}

// push records one worker's gradients for the given version; the last
// distinct worker of the epoch triggers the Adam step (the servers "add
// them up to obtain the global gradients, and update the weights").
//
// Contributions are held per worker and summed in ascending worker-id order
// once the barrier completes, so the global gradient — and therefore the
// whole training trajectory — is bit-for-bit independent of push arrival
// order. Accumulating in arrival order would make every run depend on
// goroutine scheduling, since float addition is not associative.
//
// Pushes are idempotent per (version, worker): a retry of a push the server
// already applied — e.g. the response was lost, or a timed-out attempt
// completed after being abandoned — is acknowledged without double-counting
// the gradient, which keeps the synchronous barrier sound under a lossy
// transport.
func (s *Server) push(version, worker int, grads []float32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(grads) != len(s.pending) {
		return fmt.Errorf("ps: gradient length %d != range %d", len(grads), len(s.pending))
	}
	if version < s.version {
		return nil // stale retry of an epoch already applied
	}
	if version > s.version {
		return fmt.Errorf("ps: push for version %d ahead of server version %d", version, s.version)
	}
	if _, dup := s.contribs[worker]; dup {
		return nil // duplicate push within the current epoch
	}
	s.contribs[worker] = append([]float32(nil), grads...)
	if len(s.contribs) == s.expected {
		ids := make([]int, 0, len(s.contribs))
		for id := range s.contribs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for i := range s.pending {
			s.pending[i] = 0
		}
		for _, id := range ids {
			for i, g := range s.contribs[id] {
				s.pending[i] += g
			}
		}
		if s.opts.MaxGradNorm > 0 {
			clipNorm(s.pending, s.opts.MaxGradNorm)
		}
		s.opt.Step(s.params, s.pending)
		if d := s.opts.LRDecay; d > 0 && d < 1 {
			s.opt.LR *= d
		}
		s.contribs = make(map[int][]float32)
		s.version++
		s.recordHistoryLocked()
		// Log-ship the applied update before releasing the lock: no pull can
		// observe the new version until the backup holds it (or the ship
		// failed and the replica is flagged stale), so a promotion after a
		// successful ship hands over bitwise-identical state.
		if s.ship != nil && !s.shipStale {
			if err := s.ship(s.snapshotLocked()); err != nil {
				s.shipStale = true
			}
		}
		s.cond.Broadcast()
	}
	return nil
}

// SetExpected changes how many distinct workers must push before the
// barrier fires — the elastic-membership hook, called by the engine at a
// view-change boundary when workers join or leave mid-training.
//
// Any buffered contributions for the current version are discarded: a view
// change re-runs the in-flight epoch under the new roster, and the new
// assignment covers every vertex exactly once, so gradients pushed under
// the old roster would double-count the vertices that moved. A version the
// barrier already applied is untouched — retried pushes against it are
// acknowledged as stale, exactly like the crash-recovery path.
func (s *Server) SetExpected(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("ps: expected workers must be positive, got %d", n))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expected = n
	s.contribs = make(map[int][]float32)
}

// State is a serialisable snapshot of one server's range: the parameters,
// the Adam moments and timestep, the (possibly decayed) learning rate and
// the applied-update count. Checkpoints concatenate per-range states in
// range order, so a resumed run may even re-split the vector across a
// different server count.
type State struct {
	Params       []float32
	AdamM, AdamV []float64
	AdamT        int
	LR           float64
	Version      int
}

// Snapshot captures the server's current state. It must not race an
// in-flight epoch on the caller's side: the engine snapshots between
// epochs, when every worker is blocked pulling the next version.
func (s *Server) Snapshot() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Server) snapshotLocked() State {
	m, v, t := s.opt.Snapshot()
	return State{
		Params:  append([]float32(nil), s.params...),
		AdamM:   m,
		AdamV:   v,
		AdamT:   t,
		LR:      s.opt.LR,
		Version: s.version,
	}
}

// SetShip installs (or, with nil, removes) the replication hook: fn is
// called with every applied update's full post-Adam state, inside the push
// critical section, before the new version becomes observable. The engine
// wires fn to a MethodRepl call against the range's backup node. A fn error
// marks the replica stale — shipping stops until MarkReplicaFresh, so one
// dead backup costs one failed call per epoch, not one per retry.
func (s *Server) SetShip(fn func(State) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ship = fn
	s.shipStale = false
}

// ReplicaStale reports whether a ship failed since the hook was installed
// or last marked fresh, i.e. the backup is missing at least one update and
// must not be promoted without a re-sync.
func (s *Server) ReplicaStale() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ship != nil && s.shipStale
}

// MarkReplicaFresh re-arms shipping after the engine has re-synced the
// backup with a full snapshot.
func (s *Server) MarkReplicaFresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shipStale = false
}

// ApplyReplica installs a log-shipped state on a backup. Unlike Restore it
// accumulates the version history across successive ships, so a promoted
// backup can serve version-exact pulls for the versions it was shipped —
// exactly the ones a replayed epoch may ask for.
func (s *Server) ApplyReplica(st State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(st.Params) != len(s.params) {
		return fmt.Errorf("ps: replicate %d params into range of %d", len(st.Params), len(s.params))
	}
	if st.Version < s.version {
		return fmt.Errorf("ps: replica state for version %d behind server version %d", st.Version, s.version)
	}
	if err := s.opt.Restore(st.AdamM, st.AdamV, st.AdamT); err != nil {
		return err
	}
	copy(s.params, st.Params)
	s.opt.LR = st.LR
	s.version = st.Version
	s.contribs = make(map[int][]float32)
	s.recordHistoryLocked()
	s.cond.Broadcast()
	return nil
}

// Restore overwrites the server's state from a snapshot, letting a crashed
// run resume mid-training with the exact optimiser trajectory.
func (s *Server) Restore(st State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(st.Params) != len(s.params) {
		return fmt.Errorf("ps: restore %d params into range of %d", len(st.Params), len(s.params))
	}
	if err := s.opt.Restore(st.AdamM, st.AdamV, st.AdamT); err != nil {
		return err
	}
	copy(s.params, st.Params)
	s.opt.LR = st.LR
	s.version = st.Version
	s.contribs = make(map[int][]float32)
	// A rollback rewinds time: snapshots past the restored version are no
	// longer on the trajectory, so the history restarts from this state.
	s.history = map[int][]float32{s.version: append([]float32(nil), st.Params...)}
	s.cond.Broadcast()
	return nil
}

// EncodeState serialises a State for MethodRepl and engine-driven re-syncs.
// Adam moments travel as float64 so a promoted backup's optimiser trajectory
// is bitwise identical to the primary's.
func EncodeState(st State) []byte {
	w := transport.NewWriter(16 + 4*len(st.Params) + 16*len(st.AdamM))
	w.Uint32(uint32(st.Version))
	w.Uint32(uint32(st.AdamT))
	w.Float64(st.LR)
	w.Float32s(st.Params)
	w.Float64s(st.AdamM)
	w.Float64s(st.AdamV)
	return w.Bytes()
}

// DecodeState parses EncodeState's wire form.
func DecodeState(b []byte) State {
	r := transport.NewReader(b)
	st := State{}
	st.Version = int(r.Uint32())
	st.AdamT = int(r.Uint32())
	st.LR = r.Float64()
	st.Params = r.Float32s()
	st.AdamM = r.Float64s()
	st.AdamV = r.Float64s()
	return st
}

// clipNorm scales g so its L2 norm does not exceed maxNorm.
func clipNorm(g []float32, maxNorm float64) {
	var sq float64
	for _, v := range g {
		sq += float64(v) * float64(v)
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm || norm == 0 {
		return
	}
	scale := float32(maxNorm / norm)
	for i := range g {
		g[i] *= scale
	}
}

// Client is a worker-side view of the server fleet. Every call resolves its
// destination through the shared route table, so a failover promotion
// reroutes all workers without touching them.
type Client struct {
	net    transport.Network
	worker int // this worker's node id
	routes *Routes
	ranges []Range
	total  int
}

// NewClient builds a client for worker node worker talking to the given
// fixed server nodes, each owning the corresponding range of a total-length
// parameter vector. For a cluster with failover, share a table across
// clients with NewClientRoutes instead.
func NewClient(net transport.Network, worker int, servers []int, ranges []Range) *Client {
	return NewClientRoutes(net, worker, NewRoutes(servers), ranges)
}

// NewClientRoutes is NewClient against a shared, mutable route table: the
// failover path re-points a range at its promoted backup in the table and
// every client follows at its next call.
func NewClientRoutes(net transport.Network, worker int, routes *Routes, ranges []Range) *Client {
	if routes.Len() != len(ranges) {
		panic(fmt.Sprintf("ps: %d routed servers for %d ranges", routes.Len(), len(ranges)))
	}
	total := 0
	for _, r := range ranges {
		total += r.Len()
	}
	return &Client{net: net, worker: worker, routes: routes, ranges: ranges, total: total}
}

// Pull fetches the full flat parameter vector at the given version,
// blocking until every server has applied that many updates. Each range is
// served at exactly the requested version (see Server.pullWait), so pulls
// during a replayed epoch are bitwise reproducible.
func (c *Client) Pull(version int) ([]float32, error) {
	out := make([]float32, c.total)
	for i := range c.ranges {
		srv := c.routes.Primary(i)
		w := transport.NewWriter(4)
		w.Uint32(uint32(version))
		resp, err := c.net.Call(c.worker, srv, MethodPull, w.Bytes())
		if err != nil {
			return nil, err
		}
		part := transport.NewReader(resp).Float32s()
		if len(part) != c.ranges[i].Len() {
			return nil, fmt.Errorf("ps: server %d returned %d params, want %d", srv, len(part), c.ranges[i].Len())
		}
		copy(out[c.ranges[i].Lo:c.ranges[i].Hi], part)
	}
	return out, nil
}

// ServerVersions asks every server for its applied-update count. Unlike
// Pull it never blocks, so recovery can read the fleet's progress while an
// epoch barrier is incomplete.
func (c *Client) ServerVersions() ([]int, error) {
	out := make([]int, len(c.ranges))
	for i := range c.ranges {
		resp, err := c.net.Call(c.worker, c.routes.Primary(i), MethodVersion, nil)
		if err != nil {
			return nil, err
		}
		out[i] = int(transport.NewReader(resp).Uint32())
	}
	return out, nil
}

// Push splits grads by range and sends each slice to its server, tagged
// with the epoch version and this worker's id so retried pushes are
// deduplicated server-side.
func (c *Client) Push(version int, grads []float32) error {
	if len(grads) != c.total {
		return fmt.Errorf("ps: pushing %d grads, total is %d", len(grads), c.total)
	}
	for i := range c.ranges {
		w := transport.NewWriter(12 + c.ranges[i].Len()*4)
		w.Uint32(uint32(version))
		w.Int32(int32(c.worker))
		w.Float32s(grads[c.ranges[i].Lo:c.ranges[i].Hi])
		if _, err := c.net.Call(c.worker, c.routes.Primary(i), MethodPush, w.Bytes()); err != nil {
			return err
		}
	}
	return nil
}
