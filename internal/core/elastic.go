// Elastic cluster membership: the engine-side half of live worker
// join/leave. internal/supervise owns the membership protocol (versioned
// views, announcements, the epoch-boundary barrier); this file owns the
// transition — incremental repartitioning, state handoff between old and
// new owners, rewiring the PS barrier and the supervision roster, and the
// forced exact-sync round that re-baselines the EC pipeline under the new
// view.
//
// View-change protocol (DESIGN.md §12): announcements queue on the monitor
// while an epoch runs; at the next epoch boundary the engine installs the
// new view, streams the orphaned/rebalanced vertices to their new owners
// (partition.LDG.Rebalance), ships each moved vertex's embeddings and
// ResEC-BP residuals over the ordinary transport (worker EHF1 payloads),
// rebuilds every active worker against the new topology with degraded
// caches seeded from the previous incarnations, resets the parameter-server
// barrier to the new roster size, and forces the next forward round exact.
// The synchronous barrier means no epoch ever observes two rosters.
package core

import (
	"fmt"
	"sort"
	"time"

	"ecgraph/internal/graph"
	"ecgraph/internal/obs"
	"ecgraph/internal/partition"
	"ecgraph/internal/ps"
	"ecgraph/internal/supervise"
	"ecgraph/internal/transport"
	"ecgraph/internal/worker"
)

// MembershipChange is one scripted roster change: at the boundary before
// epoch Epoch runs, Worker announces a join or a planned leave (drain).
// For joins, Worker < 0 picks the next unused node id automatically.
type MembershipChange struct {
	Epoch  int
	Join   bool
	Worker int
}

// ElasticOptions enables live membership changes mid-training.
type ElasticOptions struct {
	// Plan lists scripted joins and drains, applied at epoch boundaries.
	Plan []MembershipChange
	// MaxWorkers fixes the worker node-id space 0..MaxWorkers-1 (servers
	// sit above it). Defaults to the highest id the plan can reach, so it
	// only needs setting when joins are announced at runtime over the
	// transport rather than through Plan.
	MaxWorkers int
	// LeaveOnDeath turns a phi-detected permanent worker death into a
	// membership leave: instead of respawning the node, its vertices are
	// redistributed to the survivors at the next boundary. Requires
	// Config.Supervise.
	LeaveOnDeath bool
	// Imbalance is the rebalancer's allowed size slack (default 0.05).
	Imbalance float64
}

// MembershipEvent summarises one installed view transition for the result
// and the epoch event log.
type MembershipEvent struct {
	Gen           int    `json:"gen"`
	Epoch         int    `json:"epoch"`
	Workers       []int  `json:"workers"`
	Joined        []int  `json:"joined,omitempty"`
	Left          []int  `json:"left,omitempty"`
	VerticesMoved int    `json:"vertices_moved"`
	HandoffBytes  int64  `json:"handoff_bytes"`
	Detail        string `json:"detail,omitempty"`
}

// membershipObs holds the membership telemetry handles (all nil-safe).
type membershipObs struct {
	generation    *obs.Gauge
	activeWorkers *obs.Gauge
	moved         *obs.Counter
	handoffBytes  *obs.Counter
}

func newMembershipObs(reg *obs.Registry) membershipObs {
	return membershipObs{
		generation: reg.Gauge("ecgraph_membership_generation",
			"Current cluster view generation."),
		activeWorkers: reg.Gauge("ecgraph_membership_workers",
			"Active workers in the current view."),
		moved: reg.Counter("ecgraph_membership_vertices_moved_total",
			"Vertices that changed owners across view transitions."),
		handoffBytes: reg.Counter("ecgraph_membership_handoff_bytes_total",
			"Bytes of EHF1 state handoff payloads shipped across view transitions."),
	}
}

// cluster owns the mutable roster-dependent state of a run: the current
// assignment, topology and worker set. Non-elastic runs use it too (with a
// fixed roster), so the engine has one code path; only the engine goroutine
// ever mutates it, always between epochs.
type cluster struct {
	cfg        *Config
	dims       []int
	adj        *graph.NormAdjacency
	nTrain     int
	net        transport.Network
	maxWorkers int

	tier   *psTier
	ranges []ps.Range

	sup    *supervise.Supervisor
	mem    *supervise.Membership // nil on non-elastic runs
	health worker.PeerHealth

	mobs   membershipObs
	tracer *obs.Tracer

	assign  []int
	topo    *worker.Topology
	active  []int // sorted active worker node ids
	workers map[int]*worker.Worker
	// dead marks nodes that left via phi-detected death: their in-memory
	// state is treated as unreadable (no handoff export, no cache seeding),
	// exactly like a crashed process. Cleared if the id rejoins.
	dead map[int]bool

	plan    []MembershipChange
	planIdx int

	transitions []MembershipEvent
}

func (cl *cluster) elastic() bool { return cl.mem != nil }

// normalizePlan sorts the scripted changes by epoch, resolves automatic
// join ids, and returns the worker node-id space the run needs.
func normalizePlan(opts *ElasticOptions, bootWorkers int) ([]MembershipChange, int, error) {
	plan := append([]MembershipChange(nil), opts.Plan...)
	sort.SliceStable(plan, func(a, b int) bool { return plan[a].Epoch < plan[b].Epoch })
	nextID := bootWorkers
	maxID := bootWorkers - 1
	for i := range plan {
		if plan[i].Join && plan[i].Worker < 0 {
			plan[i].Worker = nextID
			nextID++
		}
		if plan[i].Worker > maxID {
			maxID = plan[i].Worker
		}
		if plan[i].Worker < 0 {
			return nil, 0, fmt.Errorf("core: elastic plan entry %d: leave needs an explicit worker id", i)
		}
	}
	if nextID-1 > maxID {
		maxID = nextID - 1
	}
	maxWorkers := maxID + 1
	if opts.MaxWorkers > maxWorkers {
		maxWorkers = opts.MaxWorkers
	}
	return plan, maxWorkers, nil
}

// newWorker builds a worker for node id against the cluster's CURRENT
// topology — never a boot-time snapshot, so respawns and view changes
// always see the roster in force.
func (cl *cluster) newWorker(id int) *worker.Worker {
	return worker.New(worker.Config{
		ID:             id,
		Net:            cl.net,
		Topo:           cl.topo,
		Adj:            cl.adj,
		Feats:          cl.cfg.Dataset.Features,
		Labels:         cl.cfg.Dataset.Labels,
		TrainMask:      cl.cfg.Dataset.TrainMask,
		NumTrainGlobal: cl.nTrain,
		Model:          cl.cfg.newModel(cl.dims),
		PS:             ps.NewClientRoutes(cl.net, id, cl.tier.routes, cl.ranges),
		Opts:           cl.cfg.Worker,
		Health:         cl.health,
		Metrics:        cl.cfg.Metrics,
		Tracer:         cl.cfg.Tracer,
	})
}

// registerWorker installs the worker's handler on its node, wrapped with
// the supervision RPCs so liveness probes share the handler chain with
// ghost traffic.
func (cl *cluster) registerWorker(id int, w *worker.Worker) {
	h := w.Handler()
	if cl.sup != nil {
		h = cl.sup.WrapHandler(h)
	}
	cl.net.Register(id, h)
}

// workerList returns the active workers in roster order.
func (cl *cluster) workerList() []*worker.Worker {
	out := make([]*worker.Worker, len(cl.active))
	for i, id := range cl.active {
		out[i] = cl.workers[id]
	}
	return out
}

// monitor is the node currently hosting the membership manager and failure
// detector — the first parameter server at boot, another PS node after a
// monitor re-election.
func (cl *cluster) monitor() int { return cl.tier.monitor() }

// maybeTransition runs at the top of every epoch: due scripted changes are
// announced over the transport (a join that cannot reach the monitor fails
// like any call from that node), then any pending announcements are
// installed as the next view. Returns the transition summary, or nil when
// the roster is unchanged.
func (cl *cluster) maybeTransition(t int) (*MembershipEvent, error) {
	if !cl.elastic() {
		return nil, nil
	}
	for cl.planIdx < len(cl.plan) && cl.plan[cl.planIdx].Epoch <= t {
		ch := cl.plan[cl.planIdx]
		cl.planIdx++
		var err error
		if ch.Join {
			_, err = supervise.AnnounceJoin(cl.net, ch.Worker, cl.monitor())
		} else {
			_, err = supervise.AnnounceLeave(cl.net, ch.Worker, cl.monitor())
		}
		if err != nil {
			// An unreachable monitor (or a departed announcer) drops the
			// announcement; the roster simply does not change. Log and
			// continue — elasticity must never fail a healthy epoch.
			if cl.sup != nil {
				cl.sup.Record(supervise.EventLeave, ch.Worker, t, "announcement failed: "+short(err.Error()))
			}
			cl.mem.Record(supervise.EventLeave, ch.Worker, t, "announcement failed: "+short(err.Error()))
		}
	}
	if !cl.mem.HasPending() {
		return nil, nil
	}
	view, joined, left := cl.mem.Advance(t)
	ev, err := cl.applyView(t, view, joined, left)
	if err != nil {
		return nil, err
	}
	return ev, nil
}

// applyView transitions the cluster to the freshly installed view:
// rebalance, validate, rebuild, hand off, rewire, exact-sync.
func (cl *cluster) applyView(t int, view supervise.View, joined, left []int) (*MembershipEvent, error) {
	start := time.Now()
	g := cl.cfg.Dataset.Graph
	oldAssign := cl.assign
	oldWorkers := cl.workers
	oldActive := cl.active

	for _, id := range joined {
		if id >= cl.maxWorkers {
			return nil, fmt.Errorf("core: joining worker %d outside node-id space 0..%d", id, cl.maxWorkers-1)
		}
		delete(cl.dead, id)
	}

	// Incremental repartition: evacuate leavers, fill joiners, leave the
	// survivors' unaffected vertices exactly where they are. Seeded per
	// generation so repeated transitions stay deterministic but distinct.
	reb := partition.LDG{Imbalance: cl.elasticOpts().Imbalance, Seed: cl.cfg.Seed + int64(view.Gen)}
	newAssign, moved := reb.Rebalance(g, oldAssign, oldActive, joined, left)

	// Every vertex must have exactly one owner in the new view — the
	// invariant the whole protocol exists to preserve.
	member := make(map[int]bool, len(view.Members))
	for _, id := range view.Members {
		member[id] = true
	}
	for v, w := range newAssign {
		if !member[w] {
			return nil, fmt.Errorf("core: view gen %d: vertex %d assigned to non-member %d", view.Gen, v, w)
		}
	}
	newTopo := worker.BuildTopology(g, newAssign, cl.maxWorkers)

	// Rebuild every active worker against the new topology. Survivors are
	// rebuilt too: their local CSR, ghost layout and EC pair lists all
	// derive from the topology. Their useful state comes back through
	// handoff payloads and seeded degraded caches.
	cl.assign = newAssign
	cl.topo = newTopo
	newWorkers := make(map[int]*worker.Worker, len(view.Members))
	for _, id := range view.Members {
		newWorkers[id] = cl.newWorker(id)
	}
	for id, w := range newWorkers {
		cl.registerWorker(id, w)
	}

	// State handoff: group moved vertices by (old owner → new owner) and
	// ship each group as one EHF1 payload over the real links, so handoff
	// traffic shares the chaos faults and byte accounting of everything
	// else. A dead old owner's state is unreadable — its vertices restart
	// cold; a failed delivery degrades the same way (the transition must
	// never fail because an optimisation did).
	type route struct{ src, dst int }
	groups := make(map[route][]int32)
	for _, v := range moved {
		o := oldAssign[v]
		if oldWorkers[o] == nil || cl.dead[o] {
			continue
		}
		r := route{src: o, dst: newAssign[v]}
		groups[r] = append(groups[r], int32(v))
	}
	routes := make([]route, 0, len(groups))
	for r := range groups {
		routes = append(routes, r)
	}
	sort.Slice(routes, func(a, b int) bool {
		if routes[a].src != routes[b].src {
			return routes[a].src < routes[b].src
		}
		return routes[a].dst < routes[b].dst
	})
	var handoffBytes int64
	for _, r := range routes {
		payload := oldWorkers[r.src].ExportHandoff(r.dst, groups[r])
		if _, err := cl.net.Call(r.src, r.dst, worker.MethodHandoff, payload); err != nil {
			cl.mem.Record(supervise.EventHandoff, r.src, t,
				fmt.Sprintf("handoff %d→%d (%d vertices) failed, receiving side restarts cold: %s",
					r.src, r.dst, len(groups[r]), short(err.Error())))
			continue
		}
		handoffBytes += int64(len(payload))
	}

	// Seed the degraded ghost caches from every still-readable previous
	// incarnation, so moving-vertex reads can be served from last-good
	// state immediately after the transition.
	prev := make(map[int]*worker.Worker, len(oldWorkers))
	for id, w := range oldWorkers {
		if !cl.dead[id] {
			prev[id] = w
		}
	}
	for _, w := range newWorkers {
		w.SeedDegradedCaches(prev)
	}

	// Rewire the barrier and the supervision roster to the new size —
	// backups included, so a later promotion inherits the width in force —
	// then rehydrate: ghost features for everyone, next forward round exact.
	cl.tier.setExpected(len(view.Members))
	if cl.sup != nil {
		cl.sup.SetWorkers(view.Members)
	}
	ws := make([]*worker.Worker, 0, len(newWorkers))
	for _, id := range view.Members {
		ws = append(ws, newWorkers[id])
	}
	if err := runAll(ws, func(_ int, w *worker.Worker) error { return w.FetchGhostFeatures() }); err != nil {
		return nil, fmt.Errorf("core: view gen %d: rehydrate: %w", view.Gen, err)
	}
	for _, w := range ws {
		w.ForceExactSync()
	}

	cl.active = append([]int(nil), view.Members...)
	cl.workers = newWorkers

	ev := MembershipEvent{
		Gen: view.Gen, Epoch: t,
		Workers: append([]int(nil), view.Members...),
		Joined:  joined, Left: left,
		VerticesMoved: len(moved), HandoffBytes: handoffBytes,
	}
	cl.transitions = append(cl.transitions, ev)
	cl.mobs.generation.Set(float64(view.Gen))
	cl.mobs.activeWorkers.Set(float64(len(view.Members)))
	cl.mobs.moved.Add(float64(len(moved)))
	cl.mobs.handoffBytes.Add(float64(handoffBytes))
	cl.mem.Record(supervise.EventHandoff, -1, t,
		fmt.Sprintf("gen %d: %d vertices moved, %d handoff bytes", view.Gen, len(moved), handoffBytes))
	if cl.tracer != nil {
		cl.tracer.Span(fmt.Sprintf("view change gen %d (+%v -%v)", view.Gen, joined, left),
			"membership", 0, 0, start, time.Since(start))
	}
	return &ev, nil
}

func (cl *cluster) elasticOpts() *ElasticOptions {
	if cl.cfg.Elastic != nil {
		return cl.cfg.Elastic
	}
	return &ElasticOptions{}
}

// forceLeave routes a phi-detected permanent death into the membership
// queue (the LeaveOnDeath path) and marks the node's state unreadable.
func (cl *cluster) forceLeave(node int, detail string) {
	cl.dead[node] = true
	cl.mem.ForceLeave(node, detail)
}
