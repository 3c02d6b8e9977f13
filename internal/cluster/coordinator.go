package cluster

import (
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bpred/internal/checkpoint"
	"bpred/internal/core"
	"bpred/internal/durable"
	"bpred/internal/obs"
	"bpred/internal/sim"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Dir, when non-empty, roots the authoritative per-(trace,
	// warmup) BPC1 checkpoint files. Empty keeps the ledger in memory
	// only (tests). The directory must not be shared with another
	// live Store per checkpoint's one-Store-per-path rule.
	Dir string
	// ChunkCells is the number of cells per dispatch chunk
	// (default 8). Smaller chunks bound the work a crash loses;
	// larger ones amortize dispatch and let the fused kernels run
	// wider config groups in one trace pass.
	ChunkCells int
	// LeaseTimeout, when positive, re-queues a dispatched chunk whose
	// completion has not arrived within the timeout — liveness under
	// silent worker death on the HTTP transport. Zero disables the
	// reaper; in-process deployments signal death via WorkerLeave.
	LeaseTimeout time.Duration
	// PublishName, when non-empty, publishes the coordinator's
	// counters under this name (obs.Published, the /metrics page).
	PublishName string
}

// Stats counts coordinator-side scheduling events.
type Stats struct {
	// ChunksDispatched counts Next responses that carried a chunk.
	ChunksDispatched uint64
	// Steals counts chunks a worker pulled from another worker's
	// queue.
	Steals uint64
	// Requeues counts chunks re-queued after worker death or lease
	// expiry.
	Requeues uint64
	// DupCells counts completed cells dropped because the ledger had
	// already settled them (duplicated deliveries, re-executed
	// chunks).
	DupCells uint64
	// ReplicasSent counts replica cells piggybacked onto Next
	// responses.
	ReplicasSent uint64
	// FlushErrors counts checkpoint flush failures; accepted cells
	// stay authoritative in memory and the flush retries on the next
	// acceptance and at Stop.
	FlushErrors uint64
	// StaleCompletions counts completions whose chunk ID carries
	// another coordinator incarnation's tag — deliveries that raced a
	// coordinator restart. Their cells are still folded into the
	// ledger (acceptance is self-describing and exactly-once), but
	// they settle no lease of this incarnation.
	StaleCompletions uint64
}

// Coordinator owns the cluster-scope single-flight ledger: the set of
// settled cells (backed by BPC1 checkpoint stores) plus the queues of
// chunks in flight. A cell is accepted — counted into
// ConfigsCompleted and made visible to sweeps — exactly once, however
// many workers report it; execution is at-least-once only across
// failures (a chunk whose completion was lost is re-run).
//
// The Coordinator itself implements CoordinatorClient, which is the
// in-process transport; Handler wraps it for HTTP workers.
type Coordinator struct {
	cfg    Config
	cnt    *obs.Counters
	stores *checkpoint.Stores // the authoritative per-(trace, warmup) ledgers
	// incarnation distinguishes this coordinator's chunk IDs from
	// those of earlier coordinators over the same deployment: chunk
	// IDs are incarnation<<32 | sequence, so a completion held in
	// flight across a coordinator restart can never collide with a
	// young chunk ID the restarted coordinator re-issued.
	incarnation uint64

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool                    //bplint:guardedby mu
	nextID   uint64                  //bplint:guardedby mu
	ring     *Ring                   //bplint:guardedby mu
	workers  map[string]*workerState //bplint:guardedby mu
	global   []*chunkState           //bplint:guardedby mu // chunks with no ring owner (empty fleet)
	pending  map[uint64]*chunkState  //bplint:guardedby mu // dispatched, awaiting completion
	cells    map[string]*cellWait    //bplint:guardedby mu // unsettled cells by Key.String()
	seen     map[uint64]bool         //bplint:guardedby mu // chunk IDs whose progress was merged
	stats    Stats                   //bplint:guardedby mu
	stopReap chan struct{}
}

type workerState struct {
	id       string
	queue    []*chunkState
	backlog  []ReplicaCell
	lastSeen time.Time
}

type chunkState struct {
	chunk    Chunk
	store    *checkpoint.Store
	routeKey string // first cell's Key.String(), the ring placement key
	assigned string // worker currently leasing it ("" = queued)
	deadline time.Time
	settled  bool // reported, or found fully cached at dispatch
}

type cellWait struct {
	done chan struct{}
	m    sim.Metrics
	err  error
}

// NewCoordinator builds a coordinator. Call Stop to flush the ledger
// and release waiters.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.ChunkCells <= 0 {
		cfg.ChunkCells = 8
	}
	c := &Coordinator{
		cfg:         cfg,
		cnt:         &obs.Counters{},
		stores:      checkpoint.NewStores(cfg.Dir),
		incarnation: nextIncarnation(cfg.Dir),
		ring:        NewRing(DefaultVnodes),
		workers:     make(map[string]*workerState),
		pending:     make(map[uint64]*chunkState),
		cells:       make(map[string]*cellWait),
		seen:        make(map[uint64]bool),
	}
	c.cond = sync.NewCond(&c.mu)
	if cfg.PublishName != "" {
		c.cnt.Publish(cfg.PublishName)
	}
	if cfg.LeaseTimeout > 0 {
		c.stopReap = make(chan struct{})
		go c.reap()
	}
	return c
}

// nextIncarnation derives a fresh coordinator incarnation: a counter
// persisted under dir, incremented on every coordinator start, so
// successive coordinators over one deployment never share chunk-ID
// tags. Without a directory (in-memory deployments) there is nothing
// to survive a restart into, so the incarnation is a constant 1.
func nextIncarnation(dir string) uint64 {
	if dir == "" {
		return 1
	}
	path := filepath.Join(dir, "incarnation")
	n := uint64(0)
	if raw, err := os.ReadFile(path); err == nil {
		if v, perr := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 32); perr == nil {
			n = v
		}
	}
	n++
	if n > 0xffffffff {
		n = 1 // 32-bit tag space wrapped; collisions need 4G restarts plus a 2^32-chunk-old straggler
	}
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = durable.WriteFile(path, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "%d\n", n)
			return err
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cluster: persisting incarnation: %v\n", err)
	}
	return n
}

// Incarnation returns the coordinator's chunk-ID tag.
func (c *Coordinator) Incarnation() uint64 { return c.incarnation }

// chunkIDLocked mints the next chunk ID: the coordinator's
// incarnation in the high 32 bits over a per-process sequence.
func (c *Coordinator) chunkIDLocked() uint64 {
	c.nextID++
	return c.incarnation<<32 | (c.nextID & 0xffffffff)
}

// Counters exposes the coordinator's fleet-global counters.
// ConfigsCompleted counts exactly-once cell acceptances, which is the
// chaos harness's proof obligation.
func (c *Coordinator) Counters() *obs.Counters { return c.cnt }

// Stats returns a snapshot of the scheduling statistics.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// StoreFor returns the authoritative ledger for one (trace, warmup)
// binding, creating it on first use. The returned Store is shared —
// per checkpoint's rules, do not Open a second Store on its path.
func (c *Coordinator) StoreFor(digest [32]byte, warmup uint64) (*checkpoint.Store, error) {
	return c.stores.For(digest, warmup)
}

// RunCells evaluates configs against (digest, warmup) across the
// fleet and returns metrics aligned with configs. Settled cells are
// served from the ledger (counted ConfigsCached); missing cells are
// chunked, routed by ring ownership, and waited on. Concurrent
// RunCells calls wanting the same cell subscribe to one execution —
// the cluster-scope single-flight.
//
// On ctx cancellation the partial result is returned with ctx.Err():
// settled entries carry non-empty Names, mirroring
// sim.RunConfigsCtx's partial-result contract. Cells already
// enqueued keep executing and settle into the ledger for the next
// caller.
func (c *Coordinator) RunCells(ctx context.Context, digest [32]byte, warmup uint64, configs []core.Config) ([]sim.Metrics, error) {
	out := make([]sim.Metrics, len(configs))
	type sub struct {
		i int
		w *cellWait
	}
	var subs []sub

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return out, ErrShutdown
	}
	store, err := c.stores.For(digest, warmup)
	if err != nil {
		c.mu.Unlock()
		return out, err
	}
	var fresh []core.Config
	var freshKeys []string
	for i, cfg := range configs {
		fp := cfg.Fingerprint()
		if m, ok := store.Lookup(fp); ok {
			out[i] = m
			c.cnt.AddCached(1)
			continue
		}
		key := Key{Digest: digest, Warmup: warmup, Fingerprint: fp}.String()
		if w, ok := c.cells[key]; ok {
			subs = append(subs, sub{i: i, w: w})
			continue
		}
		w := &cellWait{done: make(chan struct{})}
		c.cells[key] = w
		subs = append(subs, sub{i: i, w: w})
		fresh = append(fresh, cfg)
		freshKeys = append(freshKeys, key)
	}
	if len(fresh) > 0 {
		c.enqueueLocked(store, digest, warmup, fresh, freshKeys)
		c.cond.Broadcast()
	}
	c.mu.Unlock()

	for _, s := range subs {
		select {
		case <-ctx.Done():
			return out, ctx.Err()
		case <-s.w.done:
			if s.w.err != nil {
				return out, s.w.err
			}
			out[s.i] = s.w.m
		}
	}
	return out, nil
}

// enqueueLocked chunks fresh cells by ring owner and pushes the
// chunks onto the owners' queues (ring affinity keeps a worker's warm
// replica cache relevant; stealing rebalances load afterwards).
func (c *Coordinator) enqueueLocked(store *checkpoint.Store, digest [32]byte, warmup uint64, configs []core.Config, keys []string) {
	hexDigest := hex.EncodeToString(digest[:])
	type group struct {
		cfgs []core.Config
		keys []string
	}
	groups := make(map[string]*group)
	var order []string
	for i, cfg := range configs {
		owner, _ := c.ring.Owner(keys[i]) // "" routes to the global queue
		g := groups[owner]
		if g == nil {
			g = &group{}
			groups[owner] = g
			order = append(order, owner)
		}
		g.cfgs = append(g.cfgs, cfg)
		g.keys = append(g.keys, keys[i])
	}
	sort.Strings(order) // deterministic chunk numbering
	for _, owner := range order {
		g := groups[owner]
		for lo := 0; lo < len(g.cfgs); lo += c.cfg.ChunkCells {
			hi := min(lo+c.cfg.ChunkCells, len(g.cfgs))
			cs := &chunkState{
				chunk: Chunk{
					ID:      c.chunkIDLocked(),
					Trace:   hexDigest,
					Warmup:  warmup,
					Configs: append([]core.Config(nil), g.cfgs[lo:hi]...),
				},
				store:    store,
				routeKey: g.keys[lo],
			}
			c.pushLocked(owner, cs)
		}
	}
}

func (c *Coordinator) pushLocked(owner string, cs *chunkState) {
	if w, ok := c.workers[owner]; ok {
		w.queue = append(w.queue, cs)
		return
	}
	c.global = append(c.global, cs)
}

// Join implements CoordinatorClient: it registers the worker, adds it
// to the ring, and re-routes queued chunks the new membership assigns
// elsewhere.
func (c *Coordinator) Join(ctx context.Context, workerID string) error {
	_ = ctx
	if workerID == "" {
		return fmt.Errorf("cluster: empty worker id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrShutdown
	}
	if _, ok := c.workers[workerID]; ok {
		return nil
	}
	c.workers[workerID] = &workerState{id: workerID, lastSeen: obs.Now()}
	c.ring.Add(workerID)
	c.rebalanceLocked()
	c.cond.Broadcast()
	return nil
}

// WorkerLeave deregisters a worker: its ring points disappear, its
// in-flight leases are reclaimed, and its queued chunks are re-routed
// to the survivors. A completion the dead worker still manages to
// deliver later is accepted and deduplicated like any other.
func (c *Coordinator) WorkerLeave(workerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return
	}
	delete(c.workers, workerID)
	c.ring.Remove(workerID)
	for id, cs := range c.pending {
		if cs.assigned == workerID {
			delete(c.pending, id)
			cs.assigned = ""
			c.stats.Requeues++
			c.routeLocked(cs)
		}
	}
	for _, cs := range w.queue {
		c.routeLocked(cs)
	}
	c.cond.Broadcast()
}

// routeLocked pushes a chunk onto its ring owner's queue.
func (c *Coordinator) routeLocked(cs *chunkState) {
	owner, _ := c.ring.Owner(cs.routeKey)
	c.pushLocked(owner, cs)
}

// rebalanceLocked re-routes every queued (unleased) chunk under the
// current ring membership.
func (c *Coordinator) rebalanceLocked() {
	all := c.global
	c.global = nil
	for _, id := range c.workerIDsLocked() {
		w := c.workers[id]
		all = append(all, w.queue...)
		w.queue = nil
	}
	for _, cs := range all {
		c.routeLocked(cs)
	}
}

func (c *Coordinator) workerIDsLocked() []string {
	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Next implements CoordinatorClient: it blocks until the coordinator
// has work for workerID or ctx ends. Replication backlog is always
// drained into the response; a chunk comes from the worker's own
// queue first, then the ownerless global queue, then — work stealing
// — the tail of the longest peer queue.
func (c *Coordinator) Next(ctx context.Context, workerID string) (Work, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	for {
		if c.closed {
			return Work{}, ErrShutdown
		}
		if err := ctx.Err(); err != nil {
			return Work{}, err
		}
		w, ok := c.workers[workerID]
		if !ok {
			return Work{}, ErrUnknownWorker
		}
		w.lastSeen = obs.Now()
		var work Work
		work.Replicas = w.backlog
		w.backlog = nil
		c.stats.ReplicasSent += uint64(len(work.Replicas))
		if cs, stolen := c.popLocked(w); cs != nil {
			cs.assigned = workerID
			if c.cfg.LeaseTimeout > 0 {
				cs.deadline = obs.Now().Add(c.cfg.LeaseTimeout)
			}
			c.pending[cs.chunk.ID] = cs
			c.stats.ChunksDispatched++
			if stolen {
				c.stats.Steals++
			}
			chunk := cs.chunk
			work.Chunk = &chunk
			return work, nil
		}
		if len(work.Replicas) > 0 {
			return work, nil
		}
		c.cond.Wait()
	}
}

// popLocked pops the next dispatchable chunk for w; stolen reports
// whether it came from a peer's queue.
func (c *Coordinator) popLocked(w *workerState) (cs *chunkState, stolen bool) {
	if cs = c.popFrontLocked(&w.queue); cs != nil {
		return cs, false
	}
	if cs = c.popFrontLocked(&c.global); cs != nil {
		return cs, false
	}
	// Steal from the tail of the longest peer queue (ties broken by
	// name for determinism); tails are the chunks the owner would
	// reach last, so affinity is disturbed least.
	var victim *workerState
	for _, id := range c.workerIDsLocked() {
		p := c.workers[id]
		if p == w || len(p.queue) == 0 {
			continue
		}
		if victim == nil || len(p.queue) > len(victim.queue) {
			victim = p
		}
	}
	if victim == nil {
		return nil, false
	}
	if cs = c.popBackLocked(&victim.queue); cs != nil {
		return cs, true
	}
	return nil, false
}

func (c *Coordinator) popFrontLocked(q *[]*chunkState) *chunkState {
	for len(*q) > 0 {
		cs := (*q)[0]
		*q = (*q)[1:]
		if c.dispatchableLocked(cs) {
			return cs
		}
	}
	return nil
}

func (c *Coordinator) popBackLocked(q *[]*chunkState) *chunkState {
	for len(*q) > 0 {
		cs := (*q)[len(*q)-1]
		*q = (*q)[:len(*q)-1]
		if c.dispatchableLocked(cs) {
			return cs
		}
	}
	return nil
}

// dispatchableLocked reports whether a chunk still has unsettled
// cells. A chunk re-queued after a presumed worker death whose
// original lease then completed is fully settled; it is dropped here
// instead of being re-executed.
func (c *Coordinator) dispatchableLocked(cs *chunkState) bool {
	if cs.settled {
		return false
	}
	for _, cfg := range cs.chunk.Configs {
		if _, ok := cs.store.Lookup(cfg.Fingerprint()); !ok {
			return true
		}
	}
	cs.settled = true
	return false
}

// Complete implements CoordinatorClient: it folds a chunk's results
// into the ledger. Acceptance is exactly-once per cell — a cell
// already settled is dropped (stats.DupCells) without touching
// ConfigsCompleted — and unconditional on the sender: completions
// from deregistered workers and from before a coordinator restart
// carry everything needed to be accepted on their own.
func (c *Coordinator) Complete(ctx context.Context, workerID string, res ChunkResult) error {
	_ = ctx
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrShutdown
	}
	digest, err := parseDigest(res.Trace)
	if err != nil {
		return err
	}
	store, err := c.stores.For(digest, res.Warmup)
	if err != nil {
		return err
	}
	if w, ok := c.workers[workerID]; ok {
		w.lastSeen = obs.Now()
	}
	// A completion minted by another incarnation (held in flight
	// across a coordinator restart) can settle no lease here — its ID
	// cannot collide with any this coordinator issued. Its cells are
	// still accepted below exactly like fresh ones: cell identity is
	// content-addressed and independent of scheduling generation.
	if res.Chunk>>32 != c.incarnation {
		c.stats.StaleCompletions++
	}
	accepted := 0
	for _, cell := range res.Cells {
		if _, ok := store.Lookup(cell.Fingerprint); ok {
			c.stats.DupCells++
			continue
		}
		store.Add(cell.Fingerprint, cell.Metrics)
		c.cnt.AddCompleted(1)
		accepted++
		key := Key{Digest: digest, Warmup: res.Warmup, Fingerprint: cell.Fingerprint}.String()
		if cw, ok := c.cells[key]; ok {
			cw.m = cell.Metrics
			close(cw.done)
			delete(c.cells, key)
		}
		rep := ReplicaCell{Trace: res.Trace, Warmup: res.Warmup, Fingerprint: cell.Fingerprint, Metrics: cell.Metrics}
		for id, ws := range c.workers {
			if id == workerID {
				continue // the sender computed it; its cache is already warm
			}
			ws.backlog = append(ws.backlog, rep)
		}
	}
	if accepted > 0 {
		// Flush per acceptance batch: a coordinator crash then loses
		// at most the chunks completed since the last Complete call.
		if err := store.Flush(); err != nil {
			c.stats.FlushErrors++
		}
		c.cond.Broadcast() // replica backlogs may now unblock idle pulls
	}
	if !c.seen[res.Chunk] {
		c.seen[res.Chunk] = true
		// Merge only the worker-side simulation load (branches,
		// batches): completion and cache accounting is the
		// coordinator's, and keeping it here is what makes
		// ConfigsCompleted the exactly-once witness.
		p := res.Progress
		p.ConfigsCompleted, p.ConfigsCached, p.ConfigsFailed = 0, 0, 0
		p.TiersCompleted, p.TierTime, p.Elapsed = 0, 0, 0
		c.cnt.Merge(p)
	}
	if cs, ok := c.pending[res.Chunk]; ok {
		delete(c.pending, res.Chunk)
		cs.settled = true
	}
	if res.Err != "" {
		failErr := fmt.Errorf("cluster: chunk %d failed: %s", res.Chunk, res.Err)
		for _, fp := range res.Failed {
			key := Key{Digest: digest, Warmup: res.Warmup, Fingerprint: fp}.String()
			if cw, ok := c.cells[key]; ok {
				cw.err = failErr
				close(cw.done)
				delete(c.cells, key)
			}
		}
	}
	return nil
}

// reap re-queues chunks whose lease expired without a completion.
func (c *Coordinator) reap() {
	t := time.NewTicker(c.cfg.LeaseTimeout / 2)
	defer t.Stop()
	for {
		select {
		case <-c.stopReap:
			return
		case <-t.C:
			c.mu.Lock()
			now := obs.Now()
			for id, cs := range c.pending {
				if now.After(cs.deadline) {
					delete(c.pending, id)
					cs.assigned = ""
					c.stats.Requeues++
					c.routeLocked(cs)
				}
			}
			c.cond.Broadcast()
			c.mu.Unlock()
		}
	}
}

// Stop shuts the coordinator down: blocked Next calls and outstanding
// cell waiters resolve with ErrShutdown and every ledger store is
// flushed. It returns the first flush error.
func (c *Coordinator) Stop() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.stopReap != nil {
		close(c.stopReap)
	}
	for key, w := range c.cells {
		w.err = ErrShutdown
		close(w.done)
		delete(c.cells, key)
	}
	c.cond.Broadcast()
	return c.stores.FlushAll()
}
