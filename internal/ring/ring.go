// Package ring implements Swift-style consistent-hash placement: a fixed
// number of partitions (2^partPower) is distributed over weighted devices,
// and each partition is assigned to R distinct devices, spreading replicas
// across zones when possible. Object paths hash to partitions, so adding
// devices moves only a proportional share of partitions — the property that
// gives Swift its horizontal scalability (paper §III-B).
//
// The ring is versioned: every Rebalance produces a new epoch whose
// assignment differs from the previous one by a bounded-movement diff — at
// most one replica of any partition moves per epoch (Swift's min-part-hours
// discipline, collapsed to "one rebalance = one movement window"), so a
// single rebalance can never take a partition below quorum by itself. The
// previous epoch's placement is retained until CommitEpoch so readers can
// walk the union of old and new placements while background migration moves
// the data (NodesForRead).
package ring

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Typed sentinels for membership-change sequencing.
var (
	// ErrNeedsRebalance marks a lookup against a ring with no balanced
	// assignment yet: devices were registered (or the ring is empty) but
	// Rebalance has not produced an epoch to serve from.
	ErrNeedsRebalance = errors.New("ring: not rebalanced; call Rebalance before lookups")
	// ErrUncommittedEpoch rejects a Rebalance while the previous epoch is
	// still live (CommitEpoch not called): two overlapping migration
	// windows would break the one-replica-per-partition movement bound.
	ErrUncommittedEpoch = errors.New("ring: previous epoch not committed; migration still in progress")
	// ErrUnknownDevice marks removal of a device the ring never had.
	ErrUnknownDevice = errors.New("ring: unknown device")
)

// Device is one disk in the cluster.
type Device struct {
	// ID uniquely identifies the device.
	ID string
	// Node names the server hosting the device; replica placement avoids
	// co-locating replicas on one node when it can.
	Node string
	// Zone groups nodes into failure domains; replicas prefer distinct zones.
	Zone string
	// Weight biases how many partitions the device receives (proportional).
	Weight float64
}

// Move records one partition replica reassigned by a Rebalance — the unit
// of background data migration.
type Move struct {
	// Partition is the moved partition.
	Partition int
	// Replica is the replica slot (0-based) that changed devices.
	Replica int
	// From and To name the devices; From is the assignment of the previous
	// epoch, To the assignment of the new one.
	From, To string
}

// table is one epoch's immutable placement: the device snapshot the
// assignment indexes into. Lookups always go through a table, never the
// live (possibly dirty) device list, so pending membership changes cannot
// skew an existing epoch.
type table struct {
	epoch      uint64
	devices    []Device
	assignment [][]int // assignment[p][r] = index into devices
}

// Ring maps object paths to replica device sets.
type Ring struct {
	mu        sync.RWMutex
	partPower uint
	replicas  int

	// devices is the live device table, including changes not yet balanced
	// into an epoch (dirty when it diverges from cur's snapshot).
	devices    []Device
	deviceByID map[string]int
	dirty      bool

	epoch     uint64
	cur       *table // serving epoch; nil until the first Rebalance
	prev      *table // previous epoch, retained until CommitEpoch
	lastMoves []Move
}

// New creates a ring with 2^partPower partitions and the given replica
// count. Swift defaults to 3 replicas; the paper's testbed uses a 3-replica
// object ring.
func New(partPower uint, replicas int) (*Ring, error) {
	if partPower < 1 || partPower > 20 {
		return nil, fmt.Errorf("ring: partPower %d out of range [1,20]", partPower)
	}
	if replicas < 1 {
		return nil, fmt.Errorf("ring: replicas must be >= 1")
	}
	return &Ring{
		partPower:  partPower,
		replicas:   replicas,
		deviceByID: make(map[string]int),
	}, nil
}

// Partitions returns the number of partitions.
func (r *Ring) Partitions() int { return 1 << r.partPower }

// Replicas returns the replica count.
func (r *Ring) Replicas() int { return r.replicas }

// Epoch returns the serving epoch (0 until the first Rebalance).
func (r *Ring) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// Dirty reports whether the device set has changed since the serving epoch
// was balanced — lookups still serve the last epoch, but placement no
// longer reflects the registered devices until the next Rebalance.
func (r *Ring) Dirty() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dirty
}

// Migrating reports whether a previous epoch is still retained (the window
// between a Rebalance and its CommitEpoch, while data moves).
func (r *Ring) Migrating() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.prev != nil
}

// LastMoves returns the bounded-movement diff of the most recent Rebalance:
// every partition replica whose device changed. At most one entry exists
// per partition unless a device removal forced more (a partition that lost
// several replicas at once must refill them all — correctness over bound).
func (r *Ring) LastMoves() []Move {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]Move(nil), r.lastMoves...)
}

// AddDevice registers a device. On a balanced ring this marks the ring
// dirty: lookups keep serving the last epoch and the device takes no
// traffic until the next Rebalance.
func (r *Ring) AddDevice(d Device) error {
	if d.ID == "" {
		return fmt.Errorf("ring: device needs an ID")
	}
	if d.Weight <= 0 {
		d.Weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.deviceByID[d.ID]; dup {
		return fmt.Errorf("ring: duplicate device %q", d.ID)
	}
	r.deviceByID[d.ID] = len(r.devices)
	r.devices = append(r.devices, d)
	if r.cur != nil {
		r.dirty = true
	}
	return nil
}

// RemoveDevice unregisters a device. The serving epoch still references it
// (its snapshot is immutable) until the next Rebalance reassigns the
// partitions it held; the ring is marked dirty meanwhile.
func (r *Ring) RemoveDevice(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.deviceByID[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDevice, id)
	}
	r.devices = append(r.devices[:i], r.devices[i+1:]...)
	delete(r.deviceByID, id)
	for j := i; j < len(r.devices); j++ {
		r.deviceByID[r.devices[j].ID] = j
	}
	if r.cur != nil {
		r.dirty = true
	}
	return nil
}

// RemoveNodeDevices unregisters every device hosted by a node (node death
// or drain), returning how many were removed.
func (r *Ring) RemoveNodeDevices(node string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.devices[:0]
	removed := 0
	for _, d := range r.devices {
		if d.Node == node {
			removed++
			continue
		}
		kept = append(kept, d)
	}
	if removed == 0 {
		return 0
	}
	r.devices = kept
	r.deviceByID = make(map[string]int, len(kept))
	for i, d := range kept {
		r.deviceByID[d.ID] = i
	}
	if r.cur != nil {
		r.dirty = true
	}
	return removed
}

// Devices returns a copy of the registered (live) devices, including
// changes not yet balanced into an epoch.
func (r *Ring) Devices() []Device {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]Device(nil), r.devices...)
}

// Rebalance produces a new epoch from the live device table. The first
// call assigns every partition greedily; subsequent calls are incremental:
// assignments whose device survives are kept, replicas on removed devices
// are refilled (forced moves), and at most ONE balance-driven move per
// partition shifts load toward underfilled devices. Large imbalances
// therefore converge over several Rebalance+CommitEpoch cycles, never in
// one unbounded reshuffle — the movement bound that keeps a migration
// window small and every partition within one replica of its old
// placement.
//
// Rebalance fails with ErrUncommittedEpoch while a previous epoch is still
// retained (CommitEpoch not called).
func (r *Ring) Rebalance() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.prev != nil {
		return ErrUncommittedEpoch
	}
	n := len(r.devices)
	if n == 0 {
		return fmt.Errorf("ring: no devices")
	}
	parts := 1 << r.partPower

	// Desired partition-replica count per device, proportional to weight.
	var totalWeight float64
	for _, d := range r.devices {
		totalWeight += d.Weight
	}
	want := make([]float64, n)
	for i, d := range r.devices {
		want[i] = float64(parts*r.replicas) * d.Weight / totalWeight
	}
	got := make([]int, n)

	assignment, moves := r.assign(parts, want, got)

	next := &table{
		epoch:      r.epoch + 1,
		devices:    append([]Device(nil), r.devices...),
		assignment: assignment,
	}
	// A rebalance that moved nothing opens no migration window; the old
	// epoch is superseded in place. Moves retain the previous epoch for
	// dual-epoch reads until the data has followed (CommitEpoch).
	if len(moves) > 0 {
		r.prev = r.cur
	}
	r.cur = next
	r.epoch = next.epoch
	r.dirty = false
	r.lastMoves = moves
	return nil
}

// CommitEpoch ends the migration window: the previous epoch's placement is
// dropped and reads collapse to the serving epoch. Call it only after the
// data has been moved (every partition in LastMoves replicated onto its
// new devices).
func (r *Ring) CommitEpoch() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prev = nil
}

// assign carries the previous epoch forward and moves the minimum: forced
// refills for removed devices, then at most one balance-driven move per
// untouched partition. The first epoch has nothing to carry: every slot is
// a refill, picked greedily in (partition, replica) order, and no move is
// recorded.
func (r *Ring) assign(parts int, want []float64, got []int) ([][]int, []Move) {
	cur := r.cur
	assignment := make([][]int, parts)
	var moves []Move
	touched := make([]bool, parts)

	// Pass 1: keep every assignment whose device still exists.
	for p := 0; p < parts; p++ {
		assignment[p] = make([]int, r.replicas)
		for rep := 0; rep < r.replicas; rep++ {
			assignment[p][rep] = -1
			if cur == nil {
				continue
			}
			if ni, ok := r.deviceByID[cur.devices[cur.assignment[p][rep]].ID]; ok {
				assignment[p][rep] = ni
				got[ni]++
			}
		}
	}
	// Pass 2: forced moves — refill slots whose device was removed. These
	// are not optional and may exceed one per partition when a partition
	// lost several replicas at once (e.g. a node with two of its disks);
	// durability beats the movement bound there.
	for p := 0; p < parts; p++ {
		for rep := 0; rep < r.replicas; rep++ {
			if assignment[p][rep] != -1 {
				continue
			}
			best := r.pickDevice(assignment[p], want, got, false)
			assignment[p][rep] = best
			got[best]++
			touched[p] = true
			if cur == nil {
				continue
			}
			moves = append(moves, Move{
				Partition: p, Replica: rep,
				From: cur.devices[cur.assignment[p][rep]].ID,
				To:   r.devices[best].ID,
			})
		}
	}
	// Pass 3: balance-driven moves — a single deterministic sweep, at most
	// one move per partition that had no forced move, from that partition's
	// most-overfull device to the most-underfilled conflict-free device.
	// One sweep caps the diff at `parts` reassignments; repeated
	// Rebalance+CommitEpoch cycles converge the balance.
	for p := 0; p < parts; p++ {
		if touched[p] {
			continue
		}
		worstRep, worstOver := -1, 0.5
		for rep := 0; rep < r.replicas; rep++ {
			di := assignment[p][rep]
			if over := float64(got[di]) - want[di]; over > worstOver {
				worstOver, worstRep = over, rep
			}
		}
		if worstRep == -1 {
			continue
		}
		from := assignment[p][worstRep]
		// The moved replica's own device must not anchor the conflict sets.
		assignment[p][worstRep] = -1
		best := r.pickDevice(assignment[p], want, got, true)
		if best == -1 || best == from {
			assignment[p][worstRep] = from
			continue
		}
		assignment[p][worstRep] = best
		got[from]--
		got[best]++
		moves = append(moves, Move{
			Partition: p, Replica: worstRep,
			From: r.devices[from].ID, To: r.devices[best].ID,
		})
	}
	return assignment, moves
}

// pickDevice chooses the best device for a replica slot of a partition
// whose other replicas are the non-negative entries of slots.
// Most-underfilled wins; zone and node conflicts are penalized (tolerated
// on clusters too small to avoid them). When voluntary is true the pick is
// a balance-driven move: it must land on a strictly underfilled device and
// never co-locate with an existing replica's device or node — returning -1
// rather than making placement worse.
func (r *Ring) pickDevice(slots []int, want []float64, got []int, voluntary bool) int {
	parts := 1 << r.partPower
	usedZones := make(map[string]bool, r.replicas)
	usedNodes := make(map[string]bool, r.replicas)
	usedDevs := make(map[int]bool, r.replicas)
	for _, di := range slots {
		if di < 0 {
			continue
		}
		usedDevs[di] = true
		usedZones[r.devices[di].Zone] = true
		usedNodes[r.devices[di].Node] = true
	}
	n := len(r.devices)
	best := -1
	bestScore := 0.0
	for i, d := range r.devices {
		if usedDevs[i] && (voluntary || n > r.replicas) {
			continue
		}
		underfill := want[i] - float64(got[i])
		if voluntary && (underfill <= 0.5 || usedNodes[d.Node]) {
			continue
		}
		score := underfill
		if usedZones[d.Zone] {
			score -= float64(parts)
		}
		if usedNodes[d.Node] {
			score -= float64(parts)
		}
		if usedDevs[i] {
			score -= float64(parts) * 4
		}
		if best == -1 || score > bestScore {
			best = i
			bestScore = score
		}
	}
	return best
}

// Partition returns the partition an object path belongs to. Swift hashes
// the full /account/container/object path with md5 and takes the top bits.
func (r *Ring) Partition(path string) int {
	sum := md5.Sum([]byte(path))
	v := binary.BigEndian.Uint32(sum[:4])
	return int(v >> (32 - r.partPower))
}

// Get returns the replica devices for an object path, primary first, from
// the serving epoch. A dirty ring (device changes pending) still serves
// its last epoch — use Dirty to detect staleness.
func (r *Ring) Get(path string) ([]Device, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.cur == nil {
		return nil, ErrNeedsRebalance
	}
	p := r.Partition(path)
	out := make([]Device, len(r.cur.assignment[p]))
	for i, di := range r.cur.assignment[p] {
		out[i] = r.cur.devices[di]
	}
	return out, nil
}

// Stats summarizes the partition distribution per device of the serving
// epoch, for balance tests and the ring CLI.
func (r *Ring) Stats() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.cur == nil {
		return map[string]int{}
	}
	out := make(map[string]int, len(r.cur.devices))
	for _, reps := range r.cur.assignment {
		for _, di := range reps {
			out[r.cur.devices[di].ID]++
		}
	}
	return out
}

// NodesFor returns the distinct node names holding replicas of path in the
// serving epoch, primary first — where a proxy writes.
func (r *Ring) NodesFor(path string) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.cur == nil {
		return nil, ErrNeedsRebalance
	}
	return r.cur.nodesFor(r.Partition(path)), nil
}

// NodesForRead returns the node names a reader should walk for path: the
// serving epoch's placement first, then any extra nodes from the previous
// epoch while a migration window is open. During a move the data may not
// yet have reached the new placement (or may already have left the old),
// so GETs walk the union and never 404 mid-move.
func (r *Ring) NodesForRead(path string) ([]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.cur == nil {
		return nil, ErrNeedsRebalance
	}
	p := r.Partition(path)
	out := r.cur.nodesFor(p)
	if r.prev != nil {
		seen := make(map[string]bool, len(out))
		for _, n := range out {
			seen[n] = true
		}
		for _, n := range r.prev.nodesFor(p) {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out, nil
}

// PartitionNodes returns the distinct nodes assigned to partition p in the
// serving epoch (nil before the first Rebalance).
func (r *Ring) PartitionNodes(p int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.cur == nil || p < 0 || p >= len(r.cur.assignment) {
		return nil
	}
	return r.cur.nodesFor(p)
}

// PrevPartitionNodes returns partition p's distinct nodes in the previous
// epoch, or nil when no migration window is open.
func (r *Ring) PrevPartitionNodes(p int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.prev == nil || p < 0 || p >= len(r.prev.assignment) {
		return nil
	}
	return r.prev.nodesFor(p)
}

// nodesFor lists the distinct nodes of one partition, primary first.
// Callers hold the ring lock.
func (t *table) nodesFor(p int) []string {
	var out []string
	seen := make(map[string]bool, len(t.assignment[p]))
	for _, di := range t.assignment[p] {
		n := t.devices[di].Node
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// Balance returns the ratio of the most-loaded device's partition count to
// the ideal count (1.0 is perfect balance), considering weights, over the
// serving epoch.
func (r *Ring) Balance() float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.cur == nil || len(r.cur.devices) == 0 {
		return 0
	}
	counts := make(map[int]int)
	for _, reps := range r.cur.assignment {
		for _, di := range reps {
			counts[di]++
		}
	}
	var totalWeight float64
	for _, d := range r.cur.devices {
		totalWeight += d.Weight
	}
	parts := 1 << r.partPower
	worst := 0.0
	for i, d := range r.cur.devices {
		ideal := float64(parts*r.replicas) * d.Weight / totalWeight
		if ideal == 0 {
			continue
		}
		ratio := float64(counts[i]) / ideal
		if ratio > worst {
			worst = ratio
		}
	}
	return worst
}

// sortedDeviceIDs helps tests assert deterministic iteration.
func (r *Ring) sortedDeviceIDs() []string {
	ids := make([]string, 0, len(r.devices))
	for _, d := range r.devices {
		ids = append(ids, d.ID)
	}
	sort.Strings(ids)
	return ids
}
