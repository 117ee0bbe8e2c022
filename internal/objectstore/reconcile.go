package objectstore

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"scoop/internal/metrics"
)

// The reconciler is the store's one mechanism for closing the gap between
// what the ring wants and what the replicas hold — the in-process analog of
// Swift's async_pending + object-replicator. Two things open such a gap and
// both file the same record into the same queue: a PUT that met quorum but
// missed replicas (a repair: one object, nothing to drop) and a membership
// change that moved partitions (a migration: every object of the partition,
// sources to drop once the handoff holds). One pass drains the queue, one
// routine copies a replica, and the registry-committed ETag guards every
// write, so neither kind can ever land a version the registry did not
// commit.

// ReconcileRecord is one unit of pending reconciliation.
type ReconcileRecord struct {
	// Path scopes the record to one object (a repair). Empty means every
	// committed object of Partition (a migration).
	Path string
	// Partition is the ring partition the record belongs to.
	Partition int
	// Epoch is the ring epoch the record was filed in.
	Epoch uint64
	// Targets names the nodes to fill with the committed version.
	Targets []string
	// Drops names the nodes leaving the placement: sources cleared once the
	// handoff verifies. A repair has none.
	Drops []string
	// Attempts counts failed passes over this record.
	Attempts int
	// Causes holds the per-node write failures that filed a repair, aligned
	// with Targets.
	Causes []error
}

// recordScope selects records by what they cover.
type recordScope uint8

const (
	objectScope    recordScope = 1 << iota // repairs
	partitionScope                         // migrations
	anyScope       = objectScope | partitionScope
)

func (r ReconcileRecord) scope() recordScope {
	if r.Path != "" {
		return objectScope
	}
	return partitionScope
}

// String names the record's work in errors ("migrate partition 7").
func (r ReconcileRecord) String() string {
	if r.Path != "" {
		return "repair " + r.Path
	}
	return fmt.Sprintf("migrate partition %d", r.Partition)
}

// reconcileQueue is the pending-record queue: owned by the cluster and
// handed to its proxies the way the result cache is. Its lock nests inside
// Cluster.memberMu (membership changes file records with memberMu held) and
// is never held across a call out of this file.
type reconcileQueue struct {
	mu      sync.Mutex
	recs    []ReconcileRecord
	metrics *metrics.Registry
}

// file appends records and counts them. A nil queue (a proxy outside a
// cluster) drops them: there is no reconciler to hand them to.
func (q *reconcileQueue) file(recs ...ReconcileRecord) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.recs = append(q.recs, recs...)
	q.mu.Unlock()
	for _, r := range recs {
		if r.Path != "" {
			q.metrics.Counter("proxy.repair.recorded").Inc()
		}
		q.pending(r).Add(1)
	}
}

// pending is the gauge tracking queued records of r's scope.
func (q *reconcileQueue) pending(r ReconcileRecord) *metrics.Gauge {
	if r.Path != "" {
		return q.metrics.Gauge("proxy.repair.pending")
	}
	return q.metrics.Gauge("migrate.partitions.pending")
}

// split partitions the queue by scope, preserving order. Caller holds mu.
func (q *reconcileQueue) split(scope recordScope) (in, out []ReconcileRecord) {
	for _, r := range q.recs {
		if r.scope()&scope != 0 {
			in = append(in, r)
		} else {
			out = append(out, r)
		}
	}
	return in, out
}

// snapshot copies the queued records of the given scope, in queue order.
func (q *reconcileQueue) snapshot(scope recordScope) []ReconcileRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	in, _ := q.split(scope)
	return in
}

// take removes and returns the queued records of the given scope.
func (q *reconcileQueue) take(scope recordScope) (in []ReconcileRecord) {
	q.mu.Lock()
	defer q.mu.Unlock()
	in, q.recs = q.split(scope)
	return in
}

// requeue puts unfinished records back ahead of anything filed meanwhile.
func (q *reconcileQueue) requeue(recs []ReconcileRecord) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.recs = append(recs, q.recs...)
}

// RepairRecords returns a copy of the pending one-object records.
func (c *Cluster) RepairRecords() []ReconcileRecord { return c.recon.snapshot(objectScope) }

// MigrationRecords returns a copy of the pending partition records.
func (c *Cluster) MigrationRecords() []ReconcileRecord { return c.recon.snapshot(partitionScope) }

// RunRepairs runs one reconcile pass over the one-object records only, and
// RunMigrations one over the partition records only; the background loop
// runs both in one pass. The split exists for tests and chaos scripts, which
// drive the two in a fixed order and count store operations in between. Both
// return the records completed this pass and the first error.
func (c *Cluster) RunRepairs(ctx context.Context) (int, error) {
	return c.reconcile(ctx, objectScope)
}

// RunMigrations: see RunRepairs.
func (c *Cluster) RunMigrations(ctx context.Context) (int, error) {
	return c.reconcile(ctx, partitionScope)
}

// SetMigrationHook installs a hook called with each object path just before
// a partition record migrates it — the chaos seam for killing the migrator
// mid-copy. A non-nil error aborts the current partition's pass; its record
// stays queued and the next pass resumes it (copies are idempotent:
// ETag-guarded, already-present replicas are skipped).
func (c *Cluster) SetMigrationHook(fn func(path string) error) {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	c.migrationHook = fn
}

// reconcile is the one drain-and-requeue pass. It takes the queued records
// of the given scope and works through them in order; a record that fails
// (an unreachable target, an injected migrator kill) goes back to the head
// of the queue with Attempts bumped. When no partition record is left the
// epoch commits and the dual-epoch read window closes.
func (c *Cluster) reconcile(ctx context.Context, scope recordScope) (int, error) {
	c.memberMu.Lock()
	hook := c.migrationHook
	c.memberMu.Unlock()
	pending := c.recon.take(scope)

	done := 0
	var remaining []ReconcileRecord
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for i, rec := range pending {
		if err := ctx.Err(); err != nil {
			remaining = append(remaining, pending[i:]...)
			fail(err)
			break
		}
		if err := c.reconcileOne(ctx, rec, hook); err != nil {
			rec.Attempts++
			remaining = append(remaining, rec)
			if rec.Path == "" {
				c.metrics.Counter("migrate.partitions.failed").Inc()
			}
			fail(fmt.Errorf("objectstore: %s: %w", rec, err))
			continue
		}
		done++
		if rec.Path != "" {
			c.metrics.Counter("proxy.repair.completed").Inc()
		} else {
			c.metrics.Counter("migrate.partitions.moved").Inc()
		}
		c.recon.pending(rec).Add(-1)
	}

	c.memberMu.Lock()
	c.recon.requeue(remaining)
	if scope&partitionScope != 0 && c.ring.Migrating() && len(c.recon.snapshot(partitionScope)) == 0 {
		c.finishEpochLocked()
	}
	c.memberMu.Unlock()
	return done, firstErr
}

// reconcileOne settles one record: every object in its scope is landed on
// the record's targets (ETag-guarded) and verified against the write quorum,
// and only then are the dropped sources cleared. Any failure aborts the
// record BEFORE the source deletes — a half-migrated partition is always
// still fully readable via the dual-epoch union, and the next pass resumes
// idempotently.
func (c *Cluster) reconcileOne(ctx context.Context, rec ReconcileRecord, hook func(string) error) error {
	var paths []string
	if rec.Path != "" {
		paths, hook = []string{rec.Path}, nil // the hook is the migrator's seam
	} else {
		for _, info := range c.reg.AllObjects() {
			if p := info.Path(); c.ring.Partition(p) == rec.Partition {
				paths = append(paths, p)
			}
		}
	}
	for _, path := range paths {
		if hook != nil {
			if err := hook(path); err != nil {
				return err
			}
		}
		if err := c.reconcileObject(ctx, path, rec); err != nil {
			return err
		}
	}
	// Handoff holds for the whole record: clear the sources that left the
	// placement. Node-level Delete is idempotent and the Store Delete cannot
	// fail; a source that is down (ejected, blacked out) is skipped — after
	// the epoch commits no reader consults it, so a stale leftover replica
	// is unreachable garbage, not a correctness hazard.
	for _, path := range paths {
		c.deleteOn(ctx, rec.Drops, path)
	}
	if rec.Path != "" {
		// A repair rewrites replica state of a placement readers already
		// use; drop cached results (and cut off in-flight fills) for the path
		// so the next GET re-keys against the post-repair replicas. Ordered
		// after the last replica write — the repair's commit point — for the
		// same reason PUT invalidates after its registry commit.
		c.cache.InvalidatePath(rec.Path)
	}
	return nil
}

// deleteOn removes path's replica from each named node that is still a
// member.
func (c *Cluster) deleteOn(ctx context.Context, names []string, path string) {
	for _, node := range c.members.resolve(names) {
		_ = node.Delete(ctx, path)
	}
}

// reconcileObject lands one object on the given targets with the registry
// ETag as the guard against racing writers:
//
//  1. want = the registry-committed ETag. A copy is only ever stored if it
//     matches want, so a truncated read, a stale source or a superseded
//     repair record can never become a serving replica.
//  2. Targets already holding want are skipped (idempotent resume after a
//     mid-copy kill; a repair a later PUT already made good). Targets that
//     left the membership are skipped too: the membership change that
//     removed them filed its own records for their share.
//  3. After the copy pass the registry is re-read. A racing PUT commits to
//     the registry only after writing the current placement, so if the ETag
//     changed, our copy may have overwritten a fresher replica — redo
//     against the new ETag (bounded; each redo needs another racing PUT to
//     have landed mid-pass).
//
// A concurrent DELETE is the inverse race: the path vanishes from the
// registry. The deleter clears the union placement (readNodes), but our
// in-flight copy may land after it — the re-read detects the vanish and
// clears the targets again.
func (c *Cluster) reconcileObject(ctx context.Context, path string, rec ReconcileRecord) error {
	const maxRedo = 4
	want, ok := c.reg.InfoByPath(path)
	if !ok {
		return nil // deleted since the record was filed
	}
	for redo := 0; redo < maxRedo; redo++ {
		for _, dst := range c.members.resolve(rec.Targets) {
			if have, err := dst.Head(ctx, path); err == nil && have.ETag == want.ETag {
				continue
			}
			if err := c.copyReplica(ctx, path, want, dst); err != nil {
				return err
			}
			if rec.Path == "" {
				c.metrics.Counter("migrate.objects.copied").Inc()
			}
		}
		now, ok := c.reg.InfoByPath(path)
		if !ok {
			c.deleteOn(ctx, rec.Targets, path) // deleted mid-copy: un-land what we wrote
			return nil
		}
		if now.ETag == want.ETag {
			return c.verifyHandoff(ctx, path, want.ETag)
		}
		want = now // racing PUT committed; redo against the new version
	}
	return fmt.Errorf("%s: registry kept changing under migration (%d redos)", path, maxRedo)
}

// copyReplica copies one object onto dst from the first source whose bytes
// verify against the wanted ETag. Sources are the read placement (the old
// epoch included — mid-window the only copy may still be on a source) minus
// the target itself; a source serving stale or truncated bytes fails the
// guard and the next source is tried.
func (c *Cluster) copyReplica(ctx context.Context, path string, want ObjectInfo, dst *Node) error {
	sources, err := c.ring.NodesForRead(path)
	if err != nil {
		return err
	}
	var lastErr error = ErrNotFound
	for _, src := range c.members.resolve(sources) {
		if src == dst {
			continue
		}
		rc, info, err := src.Get(ctx, path, 0, 0, nil)
		if err != nil {
			lastErr = err
			continue
		}
		data, rerr := io.ReadAll(rc)
		rc.Close()
		if rerr != nil {
			lastErr = rerr
			continue
		}
		if info.ETag != want.ETag {
			lastErr = fmt.Errorf("source %s holds stale version of %s", src.Name(), path)
			continue
		}
		stored, perr := dst.Put(ctx, want, bytes.NewReader(data))
		if perr != nil {
			return fmt.Errorf("copy %s onto %s: %w", path, dst.Name(), perr)
		}
		if stored.ETag != want.ETag {
			// Truncated in flight (injected or real): the guard caught it;
			// remove the bad replica and try the next source.
			_ = dst.Delete(ctx, path)
			lastErr = fmt.Errorf("copy %s onto %s: stored etag mismatch", path, dst.Name())
			continue
		}
		return nil
	}
	return fmt.Errorf("copy %s onto %s: no verifiable source: %w", path, dst.Name(), lastErr)
}

// verifyHandoff checks the quorum commit of one object's reconciliation: at
// least a write quorum of the serving placement must hold the wanted version
// before a record counts as done (and its sources may be cleared).
// Carried-over replicas that are missing the object don't block the handoff
// as long as quorum holds — that gap has a repair record of its own.
func (c *Cluster) verifyHandoff(ctx context.Context, path, etag string) error {
	nodes, err := c.ring.NodesFor(path)
	if err != nil {
		return err
	}
	holding := 0
	for _, node := range c.members.resolve(nodes) {
		if have, err := node.Head(ctx, path); err == nil && have.ETag == etag {
			holding++
		}
	}
	if quorum := writeQuorum(len(nodes), c.cfg.WriteQuorum); holding < quorum {
		return fmt.Errorf("handoff %s: %d/%d new-placement replicas hold %s (quorum %d)",
			path, holding, len(nodes), etag, quorum)
	}
	return nil
}

// enqueueMigrationsLocked turns the ring's last move diff into per-partition
// records. Same-node disk moves need no data movement at node granularity
// and are skipped; if nothing needs moving the epoch commits immediately.
// Caller holds memberMu.
func (c *Cluster) enqueueMigrationsLocked() {
	moves := c.ring.LastMoves()
	if len(moves) == 0 {
		// The ring auto-committed (no migration window); nothing to do, but
		// a drain with zero moves must still detach.
		c.finishEpochLocked()
		return
	}
	seen := make(map[int]bool, len(moves))
	for _, m := range moves {
		seen[m.Partition] = true
	}
	parts := make([]int, 0, len(seen))
	for p := range seen {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	epoch := c.ring.Epoch()
	var recs []ReconcileRecord
	for _, p := range parts {
		cur := c.ring.PartitionNodes(p)
		prev := c.ring.PrevPartitionNodes(p)
		adds := nameDiff(cur, prev)
		drops := nameDiff(prev, cur)
		if len(adds) == 0 && len(drops) == 0 {
			continue // disk shuffle within the same nodes
		}
		recs = append(recs, ReconcileRecord{Partition: p, Epoch: epoch, Targets: adds, Drops: drops})
	}
	c.recon.file(recs...)
	if len(recs) == 0 && c.ring.Migrating() {
		c.finishEpochLocked()
	}
}

// nameDiff returns the names in a that are not in b, preserving a's order.
func nameDiff(a, b []string) []string {
	inB := make(map[string]bool, len(b))
	for _, n := range b {
		inB[n] = true
	}
	var out []string
	for _, n := range a {
		if !inB[n] {
			out = append(out, n)
		}
	}
	return out
}

// finishEpochLocked commits the migration window: the ring drops the old
// epoch (reads collapse to the new placement) and draining nodes detach
// from the membership. Caller holds memberMu.
func (c *Cluster) finishEpochLocked() {
	c.ring.CommitEpoch()
	for name := range c.draining {
		if node, ok := c.members.Get(name); ok {
			c.members.Remove(name)
			node.SetDown(true)
		}
		delete(c.draining, name)
		delete(c.healthFails, name)
	}
}
