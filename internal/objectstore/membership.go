package objectstore

import (
	"context"
	"errors"
	"fmt"

	"scoop/internal/ring"
)

// Membership errors.
var (
	// ErrMigrationInProgress rejects a membership change while the previous
	// epoch's data is still moving — one migration window at a time keeps
	// the ring's bounded-movement guarantee and the dual-epoch read window
	// well-defined.
	ErrMigrationInProgress = errors.New("objectstore: partition migration in progress")
	// ErrUnknownNode marks an operation on a node that is not a member.
	ErrUnknownNode = errors.New("objectstore: unknown node")
	// ErrLastNode rejects removing or draining the only member left.
	ErrLastNode = errors.New("objectstore: cannot remove the last node")
)

// AddNode joins a new object node to the running cluster: it builds the
// node's storage (DataDir/StoreWrap seams apply, same as construction),
// registers its devices, and rebalances the ring into a new epoch whose
// moved partitions are queued for background migration. name may be empty
// to auto-name (object-NN, continuing the construction sequence).
//
// The node is added to the membership BEFORE the rebalance so the instant
// the new epoch starts serving, writes and reads routed to the node
// resolve; the data it is due arrives via RunMigrations. Returns the
// node's name.
func (c *Cluster) AddNode(ctx context.Context, name string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.ring.Migrating() {
		return "", ErrMigrationInProgress
	}
	seq := c.nodeSeq
	if name == "" {
		name = fmt.Sprintf("object-%02d", seq)
	}
	if _, exists := c.members.Get(name); exists {
		return "", fmt.Errorf("objectstore: node %q already a member", name)
	}
	store, err := c.newStore(name)
	if err != nil {
		return "", err
	}
	node := NewNodeWithStore(name, store, c.engine)
	if err := c.members.Add(node); err != nil {
		return "", err
	}
	var added []string
	rollback := func() {
		for _, id := range added {
			_ = c.ring.RemoveDevice(id)
		}
		c.members.Remove(name)
	}
	for d := 0; d < c.cfg.DisksPerNode; d++ {
		id := fmt.Sprintf("%s-disk%d", name, d)
		err := c.ring.AddDevice(ring.Device{
			ID: id, Node: name, Zone: fmt.Sprintf("zone-%d", seq%3),
		})
		if err != nil {
			rollback()
			return "", err
		}
		added = append(added, id)
	}
	if err := c.ring.Rebalance(); err != nil {
		rollback()
		return "", err
	}
	c.nodeSeq++
	c.metrics.Gauge("ring.epoch").Set(int64(c.ring.Epoch()))
	c.enqueueMigrationsLocked()
	return name, nil
}

// RemoveNode removes a member that is gone (operator decommission of a
// dead node, or the health checker's auto-eject): its devices leave the
// ring, the node leaves the membership immediately, and every partition it
// held is queued for re-replication from the surviving copies. The old
// epoch still names the node during the window; readers and the migrator
// skip unresolvable names, so its carried state is simply unreachable.
//
// For a graceful exit that keeps the node serving as a data source until
// its partitions have moved, use DrainNode.
func (c *Cluster) RemoveNode(ctx context.Context, name string) error {
	return c.leave(ctx, name, false)
}

// DrainNode starts a graceful decommission: the node's devices leave the
// ring (so no new writes land on it), but the node STAYS in the membership
// as a read and migration source while its partitions move. When the
// migration window commits, the node is detached and marked down.
func (c *Cluster) DrainNode(ctx context.Context, name string) error {
	return c.leave(ctx, name, true)
}

func (c *Cluster) leave(ctx context.Context, name string, drain bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	return c.leaveLocked(name, drain)
}

// leaveLocked takes a member's devices out of the ring and files the moved
// partitions for reconciliation. A draining node stays a member until the
// window commits; a removed one detaches now. Caller holds memberMu.
func (c *Cluster) leaveLocked(name string, drain bool) error {
	if c.ring.Migrating() {
		return ErrMigrationInProgress
	}
	node, ok := c.members.Get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	if c.members.Len() == 1 {
		return ErrLastNode
	}
	c.ring.RemoveNodeDevices(name)
	if err := c.ring.Rebalance(); err != nil {
		return err
	}
	if drain {
		c.draining[name] = true
	} else {
		c.members.Remove(name)
		node.SetDown(true)
		delete(c.draining, name)
		delete(c.healthFails, name)
	}
	c.metrics.Gauge("ring.epoch").Set(int64(c.ring.Epoch()))
	c.enqueueMigrationsLocked()
	return nil
}

// Draining reports the nodes currently draining (devices out of the ring,
// still members as data sources).
func (c *Cluster) Draining() []string {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	out := make([]string, 0, len(c.draining))
	for _, name := range c.members.Names() {
		if c.draining[name] {
			out = append(out, name)
		}
	}
	return out
}

// healthFailThreshold resolves the consecutive-failure count that ejects.
func (c *Cluster) healthFailThreshold() int {
	if c.cfg.HealthFailThreshold > 0 {
		return c.cfg.HealthFailThreshold
	}
	return 3
}

// RunHealthCheck probes every member once, in membership order, and ejects
// nodes whose consecutive probe-failure count reaches the threshold. One
// success resets a node's counter (hysteresis: a flapping node must fail
// the full window in a row to be ejected, and ejection is one-way — a
// recovered node rejoins only via AddNode, so the ring never flaps back).
// Ejection is deferred while a migration window is open; the failure count
// is retained, so a still-dead node is ejected on the first probe pass
// after the window commits. Returns the names ejected this pass.
func (c *Cluster) RunHealthCheck(ctx context.Context) ([]string, error) {
	var ejected []string
	var firstErr error
	for _, name := range c.members.Names() {
		if err := ctx.Err(); err != nil {
			return ejected, err
		}
		node, ok := c.members.Get(name)
		if !ok {
			continue // removed since Names() snapshot
		}
		c.memberMu.Lock()
		if c.draining[name] {
			// A draining node is already on its way out; ejecting it early
			// would tear down the migration's data source.
			c.memberMu.Unlock()
			continue
		}
		c.memberMu.Unlock()
		err := node.Ping(ctx)
		c.memberMu.Lock()
		if err == nil {
			delete(c.healthFails, name)
			c.memberMu.Unlock()
			continue
		}
		c.healthFails[name]++
		fails := c.healthFails[name]
		c.metrics.Counter("health.probe.failed").Inc()
		if fails < c.healthFailThreshold() {
			c.memberMu.Unlock()
			continue
		}
		rerr := c.leaveLocked(name, false)
		c.memberMu.Unlock()
		switch {
		case rerr == nil:
			c.metrics.Counter("health.node.ejected").Inc()
			ejected = append(ejected, name)
		case errors.Is(rerr, ErrMigrationInProgress) || errors.Is(rerr, ErrLastNode):
			// Deferred: counter stays ≥ threshold, next pass retries.
		default:
			if firstErr == nil {
				firstErr = rerr
			}
		}
	}
	return ejected, firstErr
}
