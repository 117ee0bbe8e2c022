package objectstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
)

// sickStore wraps a node's storage engine with switchable failure modes —
// the in-package counterpart of the faultinject package (which cannot be
// imported here without a cycle through objectstore itself).
type sickStore struct {
	Store
	// failOpen makes every Get hand back a stream that dies before its
	// first byte (the open-then-crash replica peekFirst exists for).
	failOpen atomic.Bool
	// truncAt > 0 makes every Get stream EOF politely after that many
	// bytes — truncation without any error signal.
	truncAt atomic.Int64
}

func (s *sickStore) Get(ctx context.Context, path string, start, end int64) (io.ReadCloser, ObjectInfo, error) {
	rc, info, err := s.Store.Get(ctx, path, start, end)
	if err != nil {
		return nil, info, err
	}
	if s.failOpen.Load() {
		rc.Close()
		return &deadStream{}, info, nil
	}
	if n := s.truncAt.Load(); n > 0 {
		return &earlyEOF{rc: rc, left: n}, info, nil
	}
	return rc, info, nil
}

// deadStream opens fine and fails on the first Read.
type deadStream struct{}

func (deadStream) Read([]byte) (int, error) {
	return 0, errors.New("injected: replica died before first byte")
}
func (deadStream) Close() error { return nil }

// earlyEOF delivers left bytes of the wrapped stream, then a clean EOF.
type earlyEOF struct {
	rc   io.ReadCloser
	left int64
}

func (e *earlyEOF) Read(p []byte) (int, error) {
	if e.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > e.left {
		p = p[:e.left]
	}
	n, err := e.rc.Read(p)
	e.left -= int64(n)
	return n, err
}

func (e *earlyEOF) Close() error { return e.rc.Close() }

// newSickCluster builds a 1-proxy, 3-node, 3-replica cluster whose stores
// are all wrapped in sickStores, plus a container to put into.
func newSickCluster(t *testing.T) (*Cluster, map[string]*sickStore) {
	t.Helper()
	sick := make(map[string]*sickStore)
	cluster, err := NewCluster(ClusterConfig{
		Proxies: 1, ObjectNodes: 3, DisksPerNode: 2, Replicas: 3, PartPower: 4,
		StoreWrap: func(node string, s Store) Store {
			w := &sickStore{Store: s}
			sick[node] = w
			return w
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Client().CreateContainer(context.Background(), "gp", "c", nil); err != nil {
		t.Fatal(err)
	}
	return cluster, sick
}

func testPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

// replicasOf resolves the ring's replica nodes for gp/c/<object>.
func replicasOf(t *testing.T, cluster *Cluster, object string) []*Node {
	t.Helper()
	nodes, err := cluster.Proxies()[0].replicaNodes("/gp/c/" + object)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("expected 3 replicas, ring gave %d", len(nodes))
	}
	return nodes
}

// TestPutQuorumWithOneReplicaDown: a PUT against a cluster with one dead
// replica succeeds at quorum (2 of 3), records the durability gap for
// repair, and RunRepairs restores full replication once the node is back.
func TestPutQuorumWithOneReplicaDown(t *testing.T) {
	cluster, _ := newSickCluster(t)
	ctx := context.Background()
	payload := testPayload(4096)
	replicas := replicasOf(t, cluster, "obj")
	dead := replicas[2]
	dead.SetDown(true)

	info, err := cluster.Client().PutObject(ctx, "gp", "c", "obj", bytes.NewReader(payload), nil)
	if err != nil {
		t.Fatalf("PUT with 2/3 replicas up must succeed: %v", err)
	}
	if info.Size != int64(len(payload)) {
		t.Errorf("stored size = %d", info.Size)
	}
	if got := cluster.Metrics().Counter("proxy.put.underreplicated").Load(); got != 1 {
		t.Errorf("proxy.put.underreplicated = %d, want 1", got)
	}
	recs := cluster.RepairRecords()
	if len(recs) != 1 {
		t.Fatalf("repair records = %d, want 1", len(recs))
	}
	if recs[0].Path != "/gp/c/obj" {
		t.Errorf("repair path = %q", recs[0].Path)
	}
	if len(recs[0].Targets) != 1 || recs[0].Targets[0] != dead.Name() {
		t.Errorf("repair targets = %v, want [%s]", recs[0].Targets, dead.Name())
	}
	if len(recs[0].Causes) != 1 || !errors.Is(recs[0].Causes[0], ErrNodeDown) {
		t.Errorf("repair causes = %v, want ErrNodeDown", recs[0].Causes)
	}

	// The object reads back intact while degraded.
	rc, _, err := cluster.Client().GetObject(ctx, "gp", "c", "obj", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if !bytes.Equal(data, payload) {
		t.Fatal("degraded read diverged from the uploaded payload")
	}

	// Node recovers; the repair pass restores the third replica.
	dead.SetDown(false)
	n, err := cluster.RunRepairs(ctx)
	if err != nil {
		t.Fatalf("RunRepairs: %v", err)
	}
	if n != 1 {
		t.Errorf("RunRepairs repaired %d records, want 1", n)
	}
	if left := cluster.RepairRecords(); len(left) != 0 {
		t.Errorf("repair queue not drained: %v", left)
	}
	ri, err := dead.Head(ctx, "/gp/c/obj")
	if err != nil {
		t.Fatalf("repaired replica missing on %s: %v", dead.Name(), err)
	}
	if ri.Size != int64(len(payload)) {
		t.Errorf("repaired replica size = %d", ri.Size)
	}
	if got := cluster.Metrics().Counter("proxy.repair.completed").Load(); got != 1 {
		t.Errorf("proxy.repair.completed = %d, want 1", got)
	}
}

// TestPutBelowQuorumTypedError: with 2 of 3 replicas dead the PUT fails
// with the typed under-replication error carrying every node-level cause.
func TestPutBelowQuorumTypedError(t *testing.T) {
	cluster, _ := newSickCluster(t)
	ctx := context.Background()
	replicas := replicasOf(t, cluster, "obj")
	replicas[0].SetDown(true)
	replicas[1].SetDown(true)

	_, err := cluster.Client().PutObject(ctx, "gp", "c", "obj", bytes.NewReader(testPayload(64)), nil)
	if err == nil {
		t.Fatal("PUT below quorum must fail")
	}
	if !errors.Is(err, ErrUnderReplicated) {
		t.Errorf("errors.Is(err, ErrUnderReplicated) = false; err = %v", err)
	}
	if !errors.Is(err, ErrNodeDown) {
		t.Errorf("per-node cause not reachable via errors.Is(err, ErrNodeDown); err = %v", err)
	}
	var re *ReplicationError
	if !errors.As(err, &re) {
		t.Fatalf("errors.As(err, *ReplicationError) = false; err = %v", err)
	}
	if re.Got != 1 || re.Replicas != 3 || re.Want != 2 {
		t.Errorf("ReplicationError = got %d / want %d / replicas %d", re.Got, re.Want, re.Replicas)
	}
	if len(re.Causes) != 2 {
		t.Errorf("causes = %d, want 2", len(re.Causes))
	}
	if got := cluster.Metrics().Counter("proxy.put.quorum_failed").Load(); got != 1 {
		t.Errorf("proxy.put.quorum_failed = %d, want 1", got)
	}
	// The failed PUT must not register the object.
	if _, herr := cluster.Client().HeadObject(ctx, "gp", "c", "obj"); !errors.Is(herr, ErrNotFound) {
		t.Errorf("HeadObject after failed PUT = %v, want ErrNotFound", herr)
	}
}

// TestReplicationErrorWrapping exercises the error type directly.
func TestReplicationErrorWrapping(t *testing.T) {
	e := &ReplicationError{
		Path: "/a/c/o", Want: 2, Got: 0, Replicas: 3,
		Causes: []error{
			fmt.Errorf("object-00: %w", ErrNodeDown),
			errors.New("object-01: disk unreadable"),
		},
	}
	if !errors.Is(e, ErrUnderReplicated) {
		t.Error("Is(ErrUnderReplicated) = false")
	}
	if errors.Is(e, ErrNotFound) {
		t.Error("Is(ErrNotFound) = true")
	}
	if !errors.Is(e, ErrNodeDown) {
		t.Error("Unwrap tree does not reach ErrNodeDown")
	}
	var re *ReplicationError
	if !errors.As(e, &re) || re != e {
		t.Error("As(*ReplicationError) failed")
	}
	msg := e.Error()
	for _, want := range []string{"/a/c/o", "0/3", "quorum 2", "object-00", "disk unreadable"} {
		if !bytes.Contains([]byte(msg), []byte(want)) {
			t.Errorf("Error() = %q, missing %q", msg, want)
		}
	}
}

// TestGetFailoverFirstReplicaDown: a GET whose primary replica is down is
// served transparently by the next replica.
func TestGetFailoverFirstReplicaDown(t *testing.T) {
	cluster, _ := newSickCluster(t)
	ctx := context.Background()
	payload := testPayload(2048)
	if _, err := cluster.Client().PutObject(ctx, "gp", "c", "obj", bytes.NewReader(payload), nil); err != nil {
		t.Fatal(err)
	}
	replicas := replicasOf(t, cluster, "obj")
	replicas[0].SetDown(true)

	rc, info, err := cluster.Client().GetObject(ctx, "gp", "c", "obj", GetOptions{})
	if err != nil {
		t.Fatalf("GET with primary down must fail over: %v", err)
	}
	data, rerr := io.ReadAll(rc)
	rc.Close()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("failover read diverged from the uploaded payload")
	}
	if info.Size != int64(len(payload)) {
		t.Errorf("info.Size = %d", info.Size)
	}
	if got := cluster.Metrics().Counter("proxy.get.failovers").Load(); got < 1 {
		t.Errorf("proxy.get.failovers = %d, want >= 1", got)
	}
	if errs := cluster.NodeStatsTotal().Errors; errs < 1 {
		t.Errorf("node error counter = %d, want >= 1", errs)
	}
}

// TestGetFailoverBeforeFirstByte: a replica that accepts the request and
// dies before producing any data (caught by peekFirst) is routed around.
func TestGetFailoverBeforeFirstByte(t *testing.T) {
	cluster, sick := newSickCluster(t)
	ctx := context.Background()
	payload := testPayload(2048)
	if _, err := cluster.Client().PutObject(ctx, "gp", "c", "obj", bytes.NewReader(payload), nil); err != nil {
		t.Fatal(err)
	}
	replicas := replicasOf(t, cluster, "obj")
	sick[replicas[0].Name()].failOpen.Store(true)

	rc, _, err := cluster.Client().GetObject(ctx, "gp", "c", "obj", GetOptions{})
	if err != nil {
		t.Fatalf("GET past an open-then-die replica must fail over: %v", err)
	}
	data, rerr := io.ReadAll(rc)
	rc.Close()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("failover read diverged from the uploaded payload")
	}
	if got := cluster.Metrics().Counter("proxy.get.failovers").Load(); got < 1 {
		t.Errorf("proxy.get.failovers = %d, want >= 1", got)
	}
}

// TestGetMidStreamReplicaFailover: a replica whose stream EOFs short of the
// expected length mid-transfer is replaced from the break, so the client
// sees the complete object with no visible error.
func TestGetMidStreamReplicaFailover(t *testing.T) {
	cluster, sick := newSickCluster(t)
	ctx := context.Background()
	payload := testPayload(8192)
	if _, err := cluster.Client().PutObject(ctx, "gp", "c", "obj", bytes.NewReader(payload), nil); err != nil {
		t.Fatal(err)
	}
	replicas := replicasOf(t, cluster, "obj")
	sick[replicas[0].Name()].truncAt.Store(1000)

	rc, _, err := cluster.Client().GetObject(ctx, "gp", "c", "obj", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, rerr := io.ReadAll(rc)
	rc.Close()
	if rerr != nil {
		t.Fatalf("read across mid-stream truncation: %v", rerr)
	}
	if !bytes.Equal(data, payload) {
		t.Fatalf("resumed read diverged: %d bytes, want %d", len(data), len(payload))
	}
	if got := cluster.Metrics().Counter("proxy.get.resumes").Load(); got < 1 {
		t.Errorf("proxy.get.resumes = %d, want >= 1", got)
	}

	// Ranged reads resume the same way, offset-correct.
	rc, _, err = cluster.Client().GetObject(ctx, "gp", "c", "obj", GetOptions{RangeStart: 500, RangeEnd: 4096})
	if err != nil {
		t.Fatal(err)
	}
	data, rerr = io.ReadAll(rc)
	rc.Close()
	if rerr != nil {
		t.Fatalf("ranged read across truncation: %v", rerr)
	}
	if !bytes.Equal(data, payload[500:4096]) {
		t.Fatalf("ranged resumed read diverged: %d bytes, want %d", len(data), 4096-500)
	}
}
